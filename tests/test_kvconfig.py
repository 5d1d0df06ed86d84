import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from inferwatt.bundled import data_path
from inferwatt.errors import ConfigError
from inferwatt.kvconfig import format_kv, parse_kv, read_kv_file
from inferwatt.phase_model import (DecodeEnergyCoeffs, DecodeLatencyCoeffs, PrefillEnergyCoeffs,
                                   PrefillLatencyCoeffs, coefficients_from_kv, load_coefficients)
from inferwatt.roofline import HardwareProfile, load_profile, profile_from_kv
from inferwatt.transformer_costs import ModelSpec, load_model, model_from_kv


def _parse_kv_before_line_comments(text):
    """The reader when `#` anywhere started a comment, for files without inline `#`."""
    return parse_kv("\n".join(line.split("#", 1)[0] for line in text.splitlines()))


class TestComments:
    def test_hash_inside_a_value_is_kept(self):
        assert parse_kv("name = H100 #2\n") == {"name": "H100 #2"}

    def test_full_line_comments_and_blank_lines_are_skipped(self):
        text = "# header\n  # indented comment\n\n\tname = H100\n#x = 1\n"
        assert parse_kv(text) == {"name": "H100"}

    def test_inline_comment_after_a_number_is_an_error(self, tmp_path):
        text = data_path("h100_sxm_80gb_fp32.hw").read_text(encoding="utf-8")
        path = tmp_path / "inline.hw"
        path.write_text(text.replace("p_prefill = 684", "p_prefill = 684  # watts"), encoding="utf-8")
        with pytest.raises(ConfigError, match="p_prefill"):
            load_profile(path)

    @pytest.mark.parametrize("name", ["h100_sxm_80gb_fp32.hw", "llama31_8b_fp32.model",
                                      "llama31_8b_h100_fp32.coeffs", "qwen25_7b_fp32.model"])
    def test_bundled_files_read_as_before(self, name):
        text = data_path(name).read_text(encoding="utf-8")
        assert parse_kv(text) == _parse_kv_before_line_comments(text)

    def test_written_header_is_read_back_as_comments(self):
        text = format_kv([("a", "1"), ("b", "x # y")], header="fitted from t.csv\n# twice")
        assert parse_kv(text) == {"a": "1", "b": "x # y"}


# --- schemas: a dataclass's fields are its file's keys ----------------------

_COEFFICIENT_GROUPS = {"prefill_latency": PrefillLatencyCoeffs, "decode_latency": DecodeLatencyCoeffs,
                       "prefill_energy": PrefillEnergyCoeffs, "decode_energy": DecodeEnergyCoeffs}

# Names survive a file when they hold no line break and no outer whitespace.
_names = st.text(alphabet="abcXYZ019-_.#= ", max_size=12).map(str.strip)
_positive = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _model_specs(draw):
    n_heads = draw(st.integers(1, 64))
    head_dim = draw(st.integers(1, 256))
    divisors = [k for k in range(1, n_heads + 1) if n_heads % k == 0]
    return ModelSpec(n_layers=draw(st.integers(1, 200)), hidden=n_heads * head_dim, n_heads=n_heads,
                     head_dim=head_dim, ffn_dim=draw(st.integers(1, 10**6)), vocab=draw(st.integers(1, 10**6)),
                     bytes_per_param=draw(_positive), kv_heads=draw(st.none() | st.sampled_from(divisors)),
                     gated_ffn=draw(st.booleans()), tied_embeddings=draw(st.booleans()), name=draw(_names))


def _file_text(obj, prefix=""):
    """Every field of `obj` that holds a value, written as a file would hold it."""
    return format_kv((prefix + f.name, str(getattr(obj, f.name))) for f in dataclasses.fields(obj)
                     if getattr(obj, f.name) is not None)


class TestSchemas:
    @given(hw=st.builds(HardwareProfile, f_max=_positive, b_max=_positive,
                        mu_comp=st.floats(0, 1, exclude_min=True), mu_mem=st.floats(0, 1, exclude_min=True),
                        p_prefill=_positive, p_decode=_positive, name=_names))
    def test_hardware_profile_round_trip(self, hw):
        assert profile_from_kv(parse_kv(_file_text(hw))) == hw

    @given(spec=_model_specs())
    def test_model_spec_round_trip(self, spec):
        assert model_from_kv(parse_kv(_file_text(spec))) == spec

    @pytest.mark.parametrize("group", sorted(_COEFFICIENT_GROUPS))
    @given(data=st.data())
    def test_coefficient_group_round_trip(self, group, data):
        cls = _COEFFICIENT_GROUPS[group]
        coeffs = data.draw(st.builds(cls, *[_finite] * len(dataclasses.fields(cls))))
        parsed = coefficients_from_kv(parse_kv(_file_text(coeffs, prefix=f"{group}.")))
        assert getattr(parsed, group) == coeffs


_PROFILE = "f_max = 1e12\nb_max = 1e12\np_prefill = 100\np_decode = 50\n"
_MODEL = "n_layers = 4\nhidden = 256\nn_heads = 4\nhead_dim = 64\nffn_dim = 1024\nvocab = 1000\n"


class TestReadKvFile:
    @pytest.mark.parametrize("as_path", [True, False])
    def test_text_that_is_not_utf8_is_a_config_error(self, tmp_path, as_path):
        path = tmp_path / "bad.hw"
        path.write_bytes(_PROFILE.encode("utf-8") + b"name = caf\xe9\n")
        with pytest.raises(ConfigError) as exc:
            read_kv_file(path if as_path else str(path))
        assert str(exc.value).startswith(f"{path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize("name,load", [
        ("h100_sxm_80gb_fp32.hw", load_profile),
        ("llama31_8b_fp32.model", load_model),
        ("llama31_8b_h100_fp32.coeffs", load_coefficients),
    ])
    def test_one_leading_byte_order_mark_is_dropped(self, tmp_path, name, load):
        # as a Windows editor saves UTF-8; the trace reader drops one too
        text = data_path(name).read_text(encoding="utf-8")
        path = tmp_path / name
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert load(path) == load(data_path(name))
        assert load(str(path)) == load(data_path(name))
        path.write_text("\ufeff\ufeff" + text, encoding="utf-8")  # a second is no key-value line
        with pytest.raises(ConfigError) as exc:
            load(path)
        assert str(exc.value).startswith("line 1: expected 'key = value', got '\\ufeff# ")


class TestSchemaErrors:
    @pytest.mark.parametrize("read,text,message", [
        (profile_from_kv, _PROFILE + "bogus = 3\nzz = 1\n", "unknown hardware profile keys: ['bogus', 'zz']"),
        (model_from_kv, _MODEL + "bogus = 1\n", "unknown model spec keys: ['bogus']"),
        (coefficients_from_kv, "prefill_energy.a = 1\nprefill_energy.b = 2\nprefill_energy.z = 3\n",
         "unknown coefficient keys: ['prefill_energy.z']"),
        (coefficients_from_kv, "energy.a = 1\nprefill_energy = 2\n", "unknown coefficient keys: ['energy.a', 'prefill_energy']"),
    ])
    def test_unknown_keys(self, read, text, message):
        with pytest.raises(ConfigError) as exc:
            read(parse_kv(text))
        assert str(exc.value) == message

    @pytest.mark.parametrize("read,text,key", [
        (model_from_kv, _MODEL.replace("n_layers = 4\n", ""), "n_layers"),
        (profile_from_kv, _PROFILE.replace("b_max = 1e12\n", ""), "b_max"),
        # the class defaults the phase powers, but a profile file must state them
        (profile_from_kv, _PROFILE.replace("p_decode = 50\n", ""), "p_decode"),
        (coefficients_from_kv, "prefill_latency.alpha = 1e-4\n", "prefill_latency.beta"),
    ])
    def test_missing_required_key(self, read, text, key):
        with pytest.raises(ConfigError) as exc:
            read(parse_kv(text))
        assert str(exc.value) == f"missing required key {key!r}"

    @pytest.mark.parametrize("read,text,message", [
        (model_from_kv, _MODEL.replace("vocab = 1000", "vocab = 1e3"), "key 'vocab': '1e3' is not an integer"),
        (profile_from_kv, _PROFILE.replace("f_max = 1e12", "f_max = fast"), "key 'f_max': 'fast' is not a number"),
        (model_from_kv, _MODEL + "gated_ffn = maybe\n", "key 'gated_ffn': 'maybe' is not a boolean"),
        (coefficients_from_kv, "prefill_energy.a = x\nprefill_energy.b = 2\n",
         "key 'prefill_energy.a': 'x' is not a number"),
    ])
    def test_unreadable_value(self, read, text, message):
        with pytest.raises(ConfigError) as exc:
            read(parse_kv(text))
        assert str(exc.value) == message

    @pytest.mark.parametrize("read,text,message", [
        (model_from_kv, _MODEL.replace("n_layers = 4", "n_layers = 0"), "n_layers must be a positive integer, got 0"),
        (coefficients_from_kv, "prefill_energy.a = inf\nprefill_energy.b = 2\n", "prefill_energy.a must be finite, got inf"),
        (coefficients_from_kv, "decode_energy.c = 1\ndecode_energy.d = 2\ndecode_energy.g_intercept = nan\n",
         "decode_energy.g_intercept must be finite, got nan"),
        (profile_from_kv, _PROFILE + "mu_comp = 2\n", "mu_comp must lie in (0, 1], got 2.0"),
        (profile_from_kv, _PROFILE + "mu_mem = 0\n", "mu_mem must lie in (0, 1], got 0.0"),
        (profile_from_kv, _PROFILE + "mu_mem = nan\n", "mu_mem must lie in (0, 1], got nan"),
        (profile_from_kv, _PROFILE.replace("p_prefill = 100", "p_prefill = -5"),
         "p_prefill must be positive and finite, got -5.0"),
        (profile_from_kv, _PROFILE.replace("p_decode = 50", "p_decode = nan"),
         "p_decode must be positive and finite, got nan"),
        (profile_from_kv, _PROFILE.replace("b_max = 1e12", "b_max = inf"), "b_max must be positive and finite, got inf"),
    ])
    def test_value_the_constructor_rejects_names_its_key(self, read, text, message):
        with pytest.raises(ConfigError) as exc:
            read(parse_kv(text))
        assert str(exc.value) == message
