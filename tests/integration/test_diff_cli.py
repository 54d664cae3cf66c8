"""Integration tests for ``repro diff``."""

import json

import pytest

from repro.cli import main

OLD = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE . (author -> AUTHOR)*];
AUTHOR = [name -> NAME]; NAME = string; TITLE = string
"""

WIDE = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE . (author -> AUTHOR)* . (year -> YEAR)?];
AUTHOR = [name -> NAME]; NAME = string; TITLE = string; YEAR = int
"""

NARROW = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE];
AUTHOR = [name -> NAME]; NAME = string; TITLE = string
"""

QUERIES_NDJSON = (
    'SELECT X WHERE Root = [paper.author.name -> X]\n'
    '{"query": "SELECT X WHERE Root = [paper.title -> X]"}\n'
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("old", OLD), ("wide", WIDE), ("narrow", NARROW)):
        path = tmp_path / f"{name}.scmdl"
        path.write_text(text)
        paths[name] = str(path)
    queries = tmp_path / "queries.ndjson"
    queries.write_text(QUERIES_NDJSON)
    paths["queries"] = str(queries)
    return paths


class TestDiffCli:
    def test_identical_schemas_accept(self, files, capsys):
        code = main(["diff", files["old"], files["old"]])
        assert code == 0
        out = capsys.readouterr().out
        assert "identical" in out
        assert "compatibility: equivalent" in out

    def test_widening_accepts_with_queries(self, files, capsys):
        code = main(
            ["diff", files["old"], files["wide"], "--queries", files["queries"]]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "compatibility: widening" in out
        assert "ACCEPT" in out
        assert out.count("[survives]") == 2

    def test_narrowing_rejects_and_names_the_counterexample(self, files, capsys):
        code = main(
            ["diff", files["old"], files["narrow"], "--queries", files["queries"]]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "compatibility: narrowing" in out
        assert "REJECT" in out
        assert "[breaks  ]" in out
        assert "title->TITLE author->AUTHOR" in out

    def test_any_policy_accepts_narrowing(self, files):
        code = main(
            ["diff", files["old"], files["narrow"], "--policy", "any"]
        )
        assert code == 0

    def test_bad_policy_is_usage_error(self, files, capsys):
        code = main(["diff", files["old"], files["narrow"], "--policy", "yolo"])
        assert code == 2

    def test_unparsable_queries_file_is_usage_error(self, files, tmp_path):
        bad = tmp_path / "bad.ndjson"
        bad.write_text('{"not_a_query": 1}\n')
        code = main(["diff", files["old"], files["wide"], "--queries", str(bad)])
        assert code == 2

    def test_json_envelope_is_deterministic(self, files, capsys):
        outputs = []
        for _run in range(2):
            code = main(
                [
                    "diff",
                    files["old"],
                    files["narrow"],
                    "--queries",
                    files["queries"],
                    "--json",
                ]
            )
            assert code == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        envelope = json.loads(outputs[0])
        assert envelope["ok"] is True
        result = envelope["result"]
        assert result["accepted"] is False
        assert result["compatibility"] == "narrowing"
        broken = [q for q in result["queries"] if q["status"] == "breaks"]
        assert broken[0]["counterexample"] == ["title->TITLE", "author->AUTHOR"]

    def test_dtd_inputs_parse_by_extension(self, files, tmp_path, capsys):
        dtd = tmp_path / "doc.dtd"
        dtd.write_text("<!ELEMENT doc (item*)>\n<!ELEMENT item (#PCDATA)>\n")
        code = main(["diff", str(dtd), str(dtd)])
        assert code == 0
        assert "identical" in capsys.readouterr().out
