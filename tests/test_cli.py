"""Tests for the command-line interface."""


import pytest

from repro.bench.domains import build_domain
from repro.cli import main
from repro.core import Interpretation, NLIDBContext, NLIDBSystem, registry
from repro.serve import ResilientService
from repro.sqldb import parse_select

#: a candidate the static analyzer rejects (SQL211) and a valid one
#: below it: the library and the server answer with the second
INVALID_TOP = ("SELECT name, bogus FROM customers", 0.9)
VALID_BELOW = ("SELECT COUNT(*) FROM customers", 0.5)


class StubSystem(NLIDBSystem):
    """Returns fixed candidates, whatever the question."""

    name = "stub"
    candidates = (INVALID_TOP, VALID_BELOW)

    def interpret(self, question, context):
        return [
            Interpretation(self.name, confidence, sql=parse_select(sql))
            for sql, confidence in self.candidates
        ]


class InvalidOnlyStub(StubSystem):
    candidates = (INVALID_TOP,)


class TestAsk:
    def test_simple_question(self, capsys):
        code = main(["ask", "show the customers with city Berlin", "--domain", "retail"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SQL:" in out and "Berlin" in out

    def test_explain_shows_evidence(self, capsys):
        code = main(
            [
                "ask",
                "average price of products",
                "--domain",
                "retail",
                "--explain",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OQL:" in out and "confidence" in out

    def test_system_selection(self, capsys):
        code = main(
            ["ask", "customers with city Berlin", "--domain", "retail", "--system", "soda"]
        )
        assert code == 0

    def test_abstention_exit_code(self, capsys):
        code = main(
            ["ask", "flibber the frobnicator", "--domain", "retail", "--system", "soda"]
        )
        out = capsys.readouterr().out
        assert code == 1 and "abstained" in out

    def test_rows_flag_limits_output(self, capsys):
        main(["ask", "show the customers with city Berlin", "--domain", "retail", "--rows", "1"])
        out = capsys.readouterr().out
        assert "more rows" in out or out.count("\n") < 12


class TestAskAnswersLikeLibraryAndServer:
    """``repro ask`` prunes candidates the way ``NLIDBSystem.answer`` and
    ``ResilientService`` do, because all three call ``run_best``."""

    QUESTION = "how many customers"

    def _ask(self, monkeypatch, capsys, stub):
        monkeypatch.setitem(registry._FACTORIES, "stub", stub)
        code = main(["ask", self.QUESTION, "--system", "stub", "--domain", "retail"])
        return code, capsys.readouterr().out

    def test_pruned_top_candidate_answers_with_the_valid_one(self, monkeypatch, capsys):
        code, out = self._ask(monkeypatch, capsys, StubSystem)
        assert code == 0
        assert "SQL: SELECT COUNT(*) FROM customers" in out
        assert "40" in out
        context = NLIDBContext(build_domain("retail", seed=0))
        direct = StubSystem().answer(self.QUESTION, context)
        assert direct.rows == [(40,)]
        served = ResilientService(context, fallback_chain=("stub",)).ask(self.QUESTION)
        assert served.ok and served.sql == "SELECT COUNT(*) FROM customers"
        assert served.answer.rows == direct.rows

    def test_nothing_statically_valid_abstains_with_the_reason(self, monkeypatch, capsys):
        code, out = self._ask(monkeypatch, capsys, InvalidOnlyStub)
        assert code == 1
        assert "no statically valid interpretation" in out and "abstained" in out
        context = NLIDBContext(build_domain("retail", seed=0))
        assert InvalidOnlyStub().answer(self.QUESTION, context) is None
        served = ResilientService(context, fallback_chain=("stub",)).ask(self.QUESTION)
        assert not served.ok
        assert served.degraded_from == [("stub", "no statically valid interpretation")]


class TestComplete:
    def test_suggestions(self, capsys):
        code = main(["complete", "movies with", "--domain", "movies"])
        out = capsys.readouterr().out
        assert code == 0 and "[property]" in out

    def test_full_sentence_executes(self, capsys):
        code = main(["complete", "movies with genre drama", "--domain", "movies"])
        out = capsys.readouterr().out
        assert code == 0 and "SQL:" in out


class TestSystems:
    def test_lists_registry_and_domains(self, capsys):
        code = main(["systems"])
        out = capsys.readouterr().out
        assert code == 0
        assert "athena" in out and "retail" in out


class TestChat:
    def test_scripted_session(self, capsys, monkeypatch):
        lines = iter(["show the customers with city Berlin", "what about Paris", ""])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        code = main(["chat", "--domain", "retail"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Berlin" in out and "Paris" in out


class TestServe:
    def test_clean_question(self, capsys):
        code = main(
            ["serve", "show the customers with city Berlin", "--domain", "retail"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[ok]" in out and "availability   1.0" in out

    def test_injected_faults_degrade_not_crash(self, capsys):
        code = main(
            [
                "serve",
                "show the customers with city Berlin",
                "--domain",
                "retail",
                "--inject",
                "execute:error:1.0",
                "--fault-seed",
                "7",
                "--retries",
                "1",
                "--backoff",
                "0",
            ]
        )
        out = capsys.readouterr().out
        # every system's execute fails: served degraded-to-nothing, exit 1
        assert code == 1
        assert "FAILED" in out and "fell past" in out

    def test_workload_json_report(self, capsys, tmp_path):
        import json

        report = tmp_path / "serve.json"
        code = main(
            [
                "serve",
                "--domain",
                "university",
                "--workload",
                "1",
                "--inject",
                "execute:error:0.5",
                "--fault-seed",
                "3",
                "--backoff",
                "0",
                "--json",
                str(report),
            ]
        )
        capsys.readouterr()
        assert code in (0, 1)
        payload = json.loads(report.read_text())
        assert payload["fault_plan"] == "execute:error:0.5"
        assert payload["summary"]["total"] == len(payload["results"])

    def test_bad_fault_plan_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "how many customers", "--inject", "bogus:error:1.0"])
        assert exit_info.value.code == 2
        assert "unknown stage 'bogus'" in capsys.readouterr().err

    def test_requires_question_or_workload(self, capsys):
        code = main(["serve", "--domain", "retail"])
        out = capsys.readouterr().out
        assert code == 2 and "provide a question" in out

    def test_bench_serve_columns(self, capsys):
        code = main(
            [
                "bench",
                "--domain",
                "university",
                "--systems",
                "athena,soda",
                "--per-tier",
                "1",
                "--serve",
                "--backoff",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "avail" in out and "degraded" in out and "retries" in out
