"""`repro warm`: pre-baking a schema corpus into the artifact store."""

import json

import pytest

from repro.cli import main
from repro.engine import ArtifactStore, version_tag

SCHEMA = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE]; TITLE = string
"""


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    return tmp_path / "cache"


def warm_json(capsys, *argv):
    code = main(["warm", "--json", *argv])
    envelope = json.loads(capsys.readouterr().out)
    return code, envelope


class TestWarmCli:
    def test_warm_schema_files(self, cache_dir, tmp_path, capsys):
        schema_file = tmp_path / "doc.scmdl"
        schema_file.write_text(SCHEMA)
        code, envelope = warm_json(
            capsys, str(schema_file), "--cache-dir", str(cache_dir)
        )
        assert code == 0
        result = envelope["result"]
        assert result["written"] == 1 and result["hits"] == 0
        store = ArtifactStore(root=cache_dir)
        assert store.contains(result["schemas"][0]["fingerprint"])

    def test_second_pass_is_all_hits(self, cache_dir, capsys):
        code, first = warm_json(
            capsys, "--generate", "3", "--cache-dir", str(cache_dir)
        )
        assert code == 0 and first["result"]["written"] == 3
        code, second = warm_json(
            capsys, "--generate", "3", "--cache-dir", str(cache_dir)
        )
        assert code == 0
        result = second["result"]
        assert result["hits"] == 3 and result["written"] == 0

    def test_check_reports_deterministic_corpus(self, cache_dir, capsys):
        code, envelope = warm_json(
            capsys, "--generate", "2", "--check", "--cache-dir", str(cache_dir)
        )
        assert code == 0
        result = envelope["result"]
        assert result["nondeterministic"] == 0
        assert all(r["deterministic"] for r in result["schemas"])

    def test_env_var_names_the_cache_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        code, envelope = warm_json(capsys, "--generate", "1")
        assert code == 0
        assert envelope["result"]["cache_dir"] == str(tmp_path / "envcache")

    def test_no_sources_is_a_usage_error(self, cache_dir, capsys):
        code = main(["warm", "--cache-dir", str(cache_dir)])
        assert code == 2
        assert "nothing to warm" in capsys.readouterr().err

    def test_unreadable_schema_file_is_a_usage_error(self, cache_dir, capsys):
        code = main(
            ["warm", "no-such-file.scmdl", "--cache-dir", str(cache_dir)]
        )
        assert code == 2

    def test_store_stats_in_the_envelope(self, cache_dir, capsys):
        code, envelope = warm_json(
            capsys, "--generate", "1", "--cache-dir", str(cache_dir)
        )
        assert code == 0
        stats = envelope["result"]["store"]
        assert stats["puts"] == 1
        assert stats["dir"] == str(cache_dir / version_tag())
