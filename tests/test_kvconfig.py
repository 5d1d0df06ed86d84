import pytest

from inferwatt.bundled import data_path
from inferwatt.errors import ConfigError
from inferwatt.kvconfig import format_kv, parse_kv
from inferwatt.roofline import load_profile


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
