from __future__ import annotations

import json
import random
import re
import sys

import pytest
from hypothesis import given, strategies as st

from kgrag.embedding import HashedEmbedder
from kgrag.evaluation import (
    DEFAULT_SUPPORT_THRESHOLD,
    EvalRecord,
    LexicalJudge,
    RemoteJudge,
    answer_relevancy,
    context_precision,
    context_recall,
    evaluate,
    f1_context,
    faithfulness,
    load_records_jsonl,
    split_statements,
    write_matrix_csv,
    write_report_csv,
)
from kgrag.exceptions import InputError, ProviderError
from kgrag.lexical import content_tokens, coverage
from kgrag.remote import ChatClient
import kgrag.evaluation as evaluation_mod

from helpers import FakePost, FakeResponse, chat_payload, record_texts

import kgrag.remote as remote_mod

EMBEDDER = HashedEmbedder(64)
JUDGE = LexicalJudge()


class TestSplitStatements:
    def test_sentences(self):
        assert split_statements("Pasta is boiled. Pizza is baked.") == [
            "Pasta is boiled.",
            "Pizza is baked.",
        ]

    def test_empty(self):
        assert split_statements("") == []
        assert split_statements("   ") == []


class TestLexicalSupported:
    def test_verbatim_substring_supported(self):
        context = "Nonna guards the family recipes and corrects every shortcut."
        assert JUDGE.supported(["Nonna guards the family recipes."], [context]) == [True]

    def test_disjoint_unsupported(self):
        assert JUDGE.supported(["quantum turbines hum"], ["pasta water boils"]) == [False]

    def test_boundary_inclusive_three_of_five(self):
        statement = "alpha bravo charlie delta echo"
        context = "alpha bravo charlie unrelated words"
        assert LexicalJudge(tau=0.6).supported([statement], [context]) == [True]
        assert LexicalJudge(tau=0.61).supported([statement], [context]) == [False]

    def test_stopwords_ignored(self):
        assert LexicalJudge(tau=1.0).supported(["the rome of and"], ["rome"]) == [True]

    def test_no_content_tokens_unsupported(self):
        assert JUDGE.supported(["the of and"], ["anything at all"]) == [False]

    def test_verdicts_in_statement_order(self):
        statements = ["pasta water boils", "quantum turbines hum", "water boils"]
        assert JUDGE.supported(statements, ["pasta water boils"]) == [True, False, True]
        assert JUDGE.supported([], ["pasta water boils"]) == []


class TestFaithfulness:
    def test_echo_answer_is_one(self):
        contexts = ["Rome hosts festivals.", "Parma makes cheese."]
        assert faithfulness(" ".join(contexts), contexts, JUDGE) == 1.0

    def test_disjoint_answer_is_zero(self):
        assert faithfulness("Dragons hoard gold.", ["Pasta is boiled."], JUDGE) == 0.0

    def test_half_supported(self):
        answer = "Rome hosts festivals. Dragons hoard gold."
        assert faithfulness(answer, ["Rome hosts festivals."], JUDGE) == 0.5

    def test_empty_answer_undefined(self):
        assert faithfulness("", ["context"], JUDGE) is None

    def test_permutation_invariant(self):
        contexts = ["Rome hosts festivals.", "Parma makes cheese.", "Venice floods."]
        answer = "Parma makes cheese. Venice floods."
        forward = faithfulness(answer, contexts, JUDGE)
        backward = faithfulness(answer, contexts[::-1], JUDGE)
        assert forward == backward == 1.0


class TestContextRecall:
    def test_verbatim_ground_truth_is_one(self):
        gt = "Parmigiano ages for twelve months."
        assert context_recall(gt, ["Parmigiano ages for twelve months in cellars."], JUDGE) == 1.0

    def test_empty_contexts_zero(self):
        assert context_recall("Some truth here.", [], JUDGE) == 0.0

    def test_three_of_four(self):
        gt = "Alpha feeds bravo. Bravo feeds charlie. Charlie bakes bread. Dragons hoard gold."
        contexts = ["alpha feeds bravo and bravo feeds charlie while charlie bakes bread"]
        assert context_recall(gt, contexts, JUDGE) == 0.75

    def test_permutation_invariant(self):
        gt = "Alpha feeds bravo. Charlie bakes bread."
        contexts = ["alpha feeds bravo", "charlie bakes bread"]
        assert context_recall(gt, contexts, JUDGE) == context_recall(gt, contexts[::-1], JUDGE)


class TestContextPrecision:
    def test_all_relevant(self):
        gt = "Rome hosts festivals."
        contexts = ["rome hosts festivals"] * 3
        assert context_precision(gt, contexts, JUDGE) == 1.0

    def test_pattern_101(self):
        gt = "Rome hosts festivals."
        contexts = ["rome hosts festivals", "entirely unrelated words", "rome hosts festivals"]
        assert context_precision(gt, contexts, JUDGE) == pytest.approx((1 + 2 / 3) / 2)

    def test_pattern_01(self):
        gt = "Rome hosts festivals."
        contexts = ["nothing relevant whatsoever", "rome hosts festivals"]
        assert context_precision(gt, contexts, JUDGE) == pytest.approx(0.5)

    def test_empty_contexts_undefined(self):
        assert context_precision("Ground truth.", [], JUDGE) is None

    def test_all_irrelevant_zero(self):
        assert context_precision("Rome hosts festivals.", ["x y z", "p q r"], JUDGE) == 0.0

    @pytest.mark.parametrize("ground_truth", ["", "   \n "], ids=["empty", "blank"])
    def test_ground_truth_without_statements_raises_as_recall_does(self, ground_truth):
        # An undefined metric must not read as a zero score.
        contexts = ["rome hosts festivals"]
        with pytest.raises(ValueError, match="ground_truth must be non-empty"):
            context_recall(ground_truth, contexts, JUDGE)
        with pytest.raises(ValueError, match="ground_truth must be non-empty"):
            context_precision(ground_truth, contexts, JUDGE)

    def test_appending_irrelevant_never_raises(self):
        rng = random.Random(17)
        gt = "Rome hosts festivals. Parma makes cheese."
        relevant = ["rome hosts festivals", "parma makes cheese"]
        for _ in range(100):
            contexts = [rng.choice(relevant + ["xxx yyy zzz"]) for _ in range(rng.randint(1, 6))]
            before = context_precision(gt, contexts, JUDGE)
            after = context_precision(gt, contexts + ["qq ww ee rr"], JUDGE)
            assert after is not None and before is not None
            assert after <= before + 1e-12


class TestAnswerRelevancy:
    def test_identical_text_is_one(self):
        q = "What is the capital of Italy?"
        assert answer_relevancy(q, q, EMBEDDER) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_vocabulary_near_zero(self):
        score = answer_relevancy(
            "What is the capital of Italy?", "zebras gallop across savannas", EMBEDDER
        )
        assert 0.0 <= score <= 0.2

    def test_empty_answer_zero(self):
        assert answer_relevancy("Question?", "", EMBEDDER) == 0.0

    def test_clamped_to_unit_interval(self):
        score = answer_relevancy("alpha beta", "alpha gamma", EMBEDDER)
        assert 0.0 <= score <= 1.0



class TestF1:
    # (precision, recall, reported F1) triples from external comparison runs;
    # the F1 column must be reproducible from its own precision/recall cells.
    REPORTED = {
        "italian_cuisine": [
            (0.81, 0.88, 0.84),
            (0.92, 0.83, 0.87),
            (0.77, 0.33, 0.46),
            (0.38, 0.71, 0.50),
            (0.99, 0.72, 0.83),
        ],
        "quality": [
            (0.04, 0.22, 0.07),
            (0.26, 0.14, 0.18),
            (0.003, 0.07, 0.01),
            (0.23, 0.17, 0.20),
            (0.31, 0.23, 0.26),
        ],
        "qasper": [
            (0.28, 0.43, 0.34),
            (0.27, 0.44, 0.33),
            (0.29, 0.43, 0.35),
            (0.71, 0.60, 0.65),
            (0.67, 0.49, 0.57),
        ],
        "narrativeqa": [
            (0.10, 0.05, 0.07),
            (0.30, 0.16, 0.21),
            (0.004, 0.14, 0.01),
            (0.58, 0.47, 0.52),
            (0.51, 0.46, 0.48),
        ],
    }

    def test_reported_f1_cells_reproduced(self):
        for rows in self.REPORTED.values():
            for precision, recall, reported in rows:
                assert abs(round(f1_context(precision, recall), 2) - reported) <= 0.01 + 1e-12

    def test_perfect(self):
        assert f1_context(1.0, 1.0) == 1.0

    def test_zero_sum(self):
        assert f1_context(0.0, 0.0) == 0.0

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_harmonic_at_most_arithmetic(self, p, r):
        assert f1_context(p, r) <= (p + r) / 2 + 1e-12

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_symmetric_and_bounded(self, p, r):
        assert f1_context(p, r) == pytest.approx(f1_context(r, p))
        assert 0.0 <= f1_context(p, r) <= 1.0


class TestEvaluate:
    def test_perfect_record_all_ones(self):
        contexts = ["Rome hosts festivals.", "Parma makes cheese."]
        record = EvalRecord(
            question="Rome hosts festivals.",
            ground_truth="Rome hosts festivals. Parma makes cheese.",
            answer=" ".join(contexts),
            contexts=contexts,
        )
        report = evaluate([record], JUDGE, EMBEDDER)
        row = report.per_record[0]
        assert row["faithfulness"] == 1.0
        assert row["context_precision"] == 1.0
        assert row["context_recall"] == 1.0
        assert row["f1"] == 1.0
        assert row["answer_relevancy"] > 0.3

    def test_empty_contexts_recall_zero_precision_null(self):
        record = EvalRecord(
            question="Q about things?", ground_truth="Some truth.", answer="Some words.", contexts=[]
        )
        row = evaluate([record], JUDGE, EMBEDDER).per_record[0]
        assert row["context_recall"] == 0.0
        assert row["context_precision"] is None
        assert row["f1"] is None

    def test_aggregate_mean_over_defined(self):
        good = EvalRecord(
            question="q one", ground_truth="Alpha beta gamma.", answer="Alpha beta gamma.",
            contexts=["alpha beta gamma"],
        )
        half = EvalRecord(
            question="q two",
            ground_truth="Alpha beta gamma. Zz qq ww.",
            answer="Alpha beta gamma. Zz qq ww.",
            contexts=["alpha beta gamma"],
        )
        report = evaluate([good, half], JUDGE, EMBEDDER)
        assert report.per_record[0]["faithfulness"] == 1.0
        assert report.per_record[1]["faithfulness"] == 0.5
        assert report.aggregate["faithfulness"] == 0.75

    def test_judge_failure_nulls_record_not_run(self):
        class FlakyJudge:
            kind = "remote"

            def __init__(self):
                self.calls = 0

            def supported(self, statements, contexts):
                raise ProviderError("judge offline")

        records = [
            EvalRecord(question="q", ground_truth="Gt here.", answer="Ans.", contexts=["ctx"])
        ]
        report = evaluate(records, FlakyJudge(), EMBEDDER)
        row = report.per_record[0]
        assert row["faithfulness"] is None
        assert row["context_recall"] is None
        assert row["context_precision"] is None
        assert row["answer_relevancy"] is not None  # embedder path unaffected

    def test_judge_failure_keeps_metrics_already_scored(self):
        class SecondCallFails:
            kind = "remote"

            def __init__(self):
                self.calls = 0

            def supported(self, statements, contexts):
                self.calls += 1
                if self.calls > 1:
                    raise ProviderError("judge offline")
                return [True] * len(statements)

        record = EvalRecord(question="q", ground_truth="Gt here.", answer="Ans.", contexts=["ctx"])
        row = evaluate([record], SecondCallFails(), EMBEDDER).per_record[0]
        assert row["faithfulness"] == 1.0
        assert row["context_recall"] is None
        assert row["context_precision"] is None
        assert row["f1"] is None

    def test_row_is_a_compact_read_only_mapping(self):
        record = EvalRecord(
            question="q one", ground_truth="Alpha beta gamma.", answer="Alpha beta.",
            contexts=["alpha beta gamma", "delta"],
        )
        row = evaluate([record], JUDGE, EMBEDDER).per_record[0]
        as_dict = dict(row)
        assert list(as_dict) == [
            "record_index", "answer_relevancy", "faithfulness", "context_recall", "context_precision", "f1"
        ]
        assert row == as_dict and as_dict == row
        assert row["f1"] == f1_context(row["context_precision"], row["context_recall"])
        assert row.get("missing") is None
        with pytest.raises(KeyError):
            row["missing"]
        with pytest.raises(TypeError):
            row["faithfulness"] = 0.0
        assert not hasattr(row, "__dict__")
        assert sys.getsizeof(row) < sys.getsizeof(as_dict)

    def test_requires_records(self):
        with pytest.raises(ValueError):
            evaluate([], JUDGE, EMBEDDER)


class TestCsv:
    def report(self):
        records = [
            EvalRecord(
                question="Ask one?", ground_truth="Alpha beta.", answer="Alpha beta.",
                contexts=["alpha beta"],
            ),
            EvalRecord(question="Ask two?", ground_truth="Gamma delta.", answer="x", contexts=[]),
        ]
        return evaluate(records, JUDGE, EMBEDDER), records

    def test_report_csv_schema(self, tmp_path):
        report, _ = self.report()
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "record,answer_relevancy,faithfulness,context_precision,context_recall,f1"
        assert lines[1].startswith("0,")
        assert lines[-1].startswith("MEAN,")
        # record 1 has no contexts: precision and f1 cells empty
        cells = lines[2].split(",")
        assert cells[0] == "1"
        assert cells[3] == "" and cells[5] == ""

    def test_matrix_csv_has_question_column(self, tmp_path):
        report, records = self.report()
        path = tmp_path / "matrix.csv"
        write_matrix_csv(report, records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "question,answer_relevancy,faithfulness,context_precision,context_recall,f1"
        assert lines[1].startswith("Ask one?,")
        assert len(lines) == 3  # header + 2 questions, no MEAN row

    def test_csv_deterministic(self, tmp_path):
        report, records = self.report()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(report, a)
        write_report_csv(report, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
    def test_unwritable_path_is_input_error_naming_it(self, tmp_path, where):
        report, records = self.report()
        path = tmp_path / "missing" / "r.csv" if where == "missing-dir" else tmp_path
        for write in (lambda: write_report_csv(report, path), lambda: write_matrix_csv(report, records, path)):
            with pytest.raises(InputError, match=f"^cannot write {re.escape(str(path))}: "):
                write()


class TestRecordsJsonl:
    def test_load_and_skip(self, tmp_path, caplog):
        path = tmp_path / "records.jsonl"
        path.write_text(
            '{"question": "Q1?", "ground_truth": "T1."}\n'
            "garbage line\n"
            '{"question": "Q2?", "ground_truth": "T2.", "answer": "A2", "contexts": ["c"]}\n',
            encoding="utf-8",
        )
        with caplog.at_level("WARNING"):
            records, skipped = load_records_jsonl(path)
        assert len(records) == 2 and skipped == 1
        assert records[1].answer == "A2"
        assert records[1].contexts == ["c"]

    def test_raw_line_separators_inside_strings_are_kept(self, tmp_path):
        odd = {"question": "Q\u2028one?", "ground_truth": "T\u0085.", "answer": "A", "contexts": ["c\u2029d"]}
        plain = {"question": "Q2?", "ground_truth": "T2."}
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(odd, ensure_ascii=False) + "\n" + json.dumps(plain) + "\n", encoding="utf-8")
        records, skipped = load_records_jsonl(path)
        assert records == [EvalRecord(**odd), EvalRecord(**plain)] and skipped == 0

    @pytest.mark.parametrize(
        "bad",
        [
            {"question": "Q?", "ground_truth": "T.", "contexts": "Pecorino Romano goes into Carbonara."},
            {"question": "Q?", "ground_truth": "T.", "answer": None},
            {"question": "Q?", "ground_truth": "T.", "answer": 3},
            {"question": "Q?", "ground_truth": "T.", "contexts": ["c", 1]},
            {"question": 5, "ground_truth": "T."},
            {"question": "Q?", "ground_truth": ["T."]},
        ],
        ids=["contexts-str", "answer-null", "answer-int", "contexts-int-item", "question-int", "truth-list"],
    )
    def test_wrong_json_types_are_skipped(self, tmp_path, caplog, bad):
        path = tmp_path / "records.jsonl"
        good = {"question": "Q1?", "ground_truth": "T1.", "answer": "A1", "contexts": ["c"]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            records, skipped = load_records_jsonl(path)
        assert records == [EvalRecord(**good)] and skipped == 1
        assert "skipping malformed record" in caplog.text and "line 2" in caplog.text

    @pytest.mark.parametrize(
        ("field", "value", "label"),
        [
            ("question", "What is \ud800 pizza?", "question"),
            ("ground_truth", "Pizza \udfff.", "ground_truth"),
            ("answer", "\udc00", "answer"),
            ("contexts", ["fine", "bad \ud800"], "contexts[1]"),
        ],
    )
    def test_escaped_lone_surrogate_is_skipped(self, tmp_path, caplog, field, value, label):
        path = tmp_path / "records.jsonl"
        good = {"question": "Q1?", "ground_truth": "T1.", "answer": "Pizza \U0001f355", "contexts": ["c"]}
        bad = {"question": "Q?", "ground_truth": "T.", field: value}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        assert "\\u" in path.read_text(encoding="utf-8")  # json.dumps escapes every surrogate
        with caplog.at_level("WARNING"):
            records, skipped = load_records_jsonl(path)
        assert records == [EvalRecord(**good)] and skipped == 1  # a valid pair decodes to one character
        assert f"skipping malformed record at {path} line 2: {label} holds the lone surrogate" in caplog.text

    def test_non_utf8_file_names_the_path(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"question": "Q\xff?", "ground_truth": "T."}\n')
        with pytest.raises(InputError, match=f"cannot read records file {path}: 'utf-8' codec can't decode"):
            load_records_jsonl(path)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            EvalRecord(question="", ground_truth="x")
        with pytest.raises(ValueError):
            EvalRecord(question="x", ground_truth=" ")


class TestRemoteJudge:
    def client(self):
        return ChatClient(endpoint_url="http://j.test/v1/chat/completions", model_name="judge-1")

    def test_yes_verdict(self, monkeypatch):
        fake = FakePost([FakeResponse(200, chat_payload("Yes, it is supported."))])
        monkeypatch.setattr(remote_mod, "_send", fake)
        assert list(RemoteJudge(self.client()).supported(["stmt"], ["ctx"])) == [True]

    def test_no_verdict(self, monkeypatch):
        fake = FakePost([FakeResponse(200, chat_payload("No."))])
        monkeypatch.setattr(remote_mod, "_send", fake)
        assert list(RemoteJudge(self.client()).supported(["stmt"], ["ctx"])) == [False]

    def test_context_precision_stops_at_first_supported_statement(self, monkeypatch):
        fake = FakePost([FakeResponse(200, chat_payload("Yes."))] * 2)
        monkeypatch.setattr(remote_mod, "_send", fake)
        gt = "Rome hosts festivals. Parma makes cheese."
        assert context_precision(gt, ["rome hosts festivals"], RemoteJudge(self.client())) == 1.0
        assert len(fake.calls) == 1


class TestOnePassPerText:
    def test_faithfulness_tokenizes_each_context_once(self, monkeypatch):
        texts = record_texts(monkeypatch, evaluation_mod)
        contexts = ["Rome hosts festivals.", "Parma makes cheese."]
        answer = "Rome hosts festivals. Parma makes cheese. Dragons hoard gold."
        assert faithfulness(answer, contexts, JUDGE) == pytest.approx(2 / 3)
        # Each context once, the joined string never; then each of the 3 statements.
        assert texts == [*contexts, *split_statements(answer)]
        assert len(texts) == 5

    def test_context_precision_tokenizes_each_context_once(self, monkeypatch):
        texts = record_texts(monkeypatch, evaluation_mod)
        contexts = ["rome hosts festivals", "entirely unrelated words"]
        context_precision("Rome hosts festivals. Parma makes cheese.", contexts, JUDGE)
        assert [texts.count(c) for c in contexts] == [1, 1]

    def test_evaluate_tokenizes_each_context_once_per_record(self, monkeypatch):
        texts = record_texts(monkeypatch, evaluation_mod)
        contexts = ["rome hosts festivals", "parma makes cheese"]  # no statement has these texts
        record = EvalRecord(
            question="Where are festivals?",
            ground_truth="Rome hosts festivals.",
            answer="Rome hosts festivals. Dragons hoard gold.",
            contexts=contexts,
        )
        row = evaluate([record], LexicalJudge(), EMBEDDER).per_record[0]
        assert (row["faithfulness"], row["context_recall"], row["context_precision"]) == (0.5, 1.0, 1.0)
        assert [texts.count(c) for c in contexts] == [1, 1]  # shared by all three metrics
        assert " ".join(contexts) not in texts

    def test_three_context_record_tokenizes_each_context_once(self, monkeypatch):
        texts = record_texts(monkeypatch, evaluation_mod)
        contexts = ["rome hosts festivals", "parma makes cheese", "venice floods often"]
        record = EvalRecord(
            question="What happens where?",
            ground_truth="Venice floods often. Turin builds cars.",
            answer="Rome hosts festivals. Parma makes cheese.",
            contexts=contexts,
        )
        judge = LexicalJudge()
        evaluate([record], judge, EMBEDDER)
        evaluate([record], judge, EMBEDDER)  # the kept token sets serve a repeated record
        assert [texts.count(c) for c in contexts] == [1, 1, 1]
        assert " ".join(contexts) not in texts

    def test_reused_context_tokens_follow_the_context(self):
        judge = LexicalJudge()
        assert judge.supported(["rome hosts festivals"], ["Rome hosts festivals."]) == [True]
        assert judge.supported(["rome hosts festivals"], ["Parma makes cheese."]) == [False]
        assert judge.supported(["rome hosts festivals"], ["Rome hosts festivals."]) == [True]

    def test_kept_sets_score_the_call_s_contexts_only(self):
        judge = LexicalJudge()
        contexts = ["rome hosts festivals", "parma makes cheese"]
        assert judge.supported(["parma makes cheese"], contexts) == [True]
        assert judge.supported(["parma makes cheese"], contexts[:1]) == [False]
        assert judge.supported(["parma makes cheese"], []) == [False]


class TestContextList:
    @pytest.mark.parametrize("kind", ["lexical", "remote"])
    def test_str_contexts_raise_type_error(self, monkeypatch, kind):
        fake = FakePost([])
        monkeypatch.setattr(remote_mod, "_send", fake)
        judge = LexicalJudge() if kind == "lexical" else RemoteJudge(ChatClient("http://j.test", "judge-1"))
        with pytest.raises(TypeError, match="not a str"):
            judge.supported(["rome hosts festivals"], "rome hosts festivals")
        assert fake.calls == []  # the remote judge raises before any chat call

    def test_remote_prompts_match_joined_string_protocol(self, monkeypatch):
        contexts = ["Rome hosts festivals.", "Parma makes cheese.", "Venice floods often."]
        record = EvalRecord(
            question="What happens where?",
            ground_truth="Venice floods often. Turin builds cars.",
            answer="Rome hosts festivals. Dragons hoard gold.",
            contexts=contexts,
        )
        answer_statements = ["Rome hosts festivals.", "Dragons hoard gold."]
        truth_statements = ["Venice floods often.", "Turin builds cars."]
        # The joined-string protocol: faithfulness and context_recall judge every
        # statement against " ".join(contexts), context_precision each context alone.
        # Every reply is "No.", so context_precision asks about every statement.
        asked = [(" ".join(contexts), s) for s in answer_statements + truth_statements]
        asked += [(ctx, s) for ctx in contexts for s in truth_statements]
        fake = FakePost([FakeResponse(200, chat_payload("No."))] * len(asked))
        monkeypatch.setattr(remote_mod, "_send", fake)
        client = ChatClient(endpoint_url="http://j.test/v1/chat/completions", model_name="judge-1")
        row = evaluate([record], RemoteJudge(client), EMBEDDER).per_record[0]
        assert (row["faithfulness"], row["context_recall"], row["context_precision"]) == (0.0, 0.0, 0.0)
        expected = [
            {
                "model": "judge-1",
                "messages": [
                    {
                        "role": "system",
                        "content": "You judge whether a statement is supported by a context. Answer only yes or no.",
                    },
                    {
                        "role": "user",
                        "content": f"Context:\n{ctx}\n\nStatement: {s}\n\n"
                        "Is the statement supported by the context? Answer yes or no.",
                    },
                ],
            }
            for ctx, s in asked
        ]
        assert [call["json"] for call in fake.calls] == expected


class _JoinedStringJudge:
    """The lexical judge before the list protocol: one context string per call."""

    def __init__(self, tau: float = DEFAULT_SUPPORT_THRESHOLD):
        self.tau = tau

    def supported(self, statements, context: str):
        context_tokens = content_tokens(context)
        return [coverage(content_tokens(s), context_tokens) >= self.tau for s in statements]


def _joined_string_row(record: EvalRecord) -> dict:
    """Per-record metrics of the metric bodies that joined the contexts into one string."""
    judge = _JoinedStringJudge()
    answer_statements = split_statements(record.answer)
    truth_statements = split_statements(record.ground_truth)
    joined = " ".join(record.contexts)

    def ratio(statements):
        return sum(judge.supported(statements, joined)) / len(statements)

    row = {
        "record_index": 0,
        "answer_relevancy": answer_relevancy(record.question, record.answer, EMBEDDER),
        "faithfulness": ratio(answer_statements) if answer_statements else None,
        "context_recall": ratio(truth_statements),
        "context_precision": None,
    }
    if record.contexts:
        verdicts = [1 if any(judge.supported(truth_statements, ctx)) else 0 for ctx in record.contexts]
        score, hits = 0.0, 0
        for k, v in enumerate(verdicts, start=1):
            hits += v
            if v:
                score += hits / k
        row["context_precision"] = score / sum(verdicts) if sum(verdicts) else 0.0
    precision, recall = row["context_precision"], row["context_recall"]
    row["f1"] = f1_context(precision, recall) if precision is not None else None
    return row


_WORDS = st.sampled_from(
    [
        "rome", "Rome,", "(parma)", "cheese.", "the", "of", "-[capital_of]->", "don't",
        "İstanbul", "istanbul", "ΟΔΟΣ", "οδος", "ΟΔΟΣ.", "«venice»", "x", "!!", "42",
    ]
)
_TEXT = st.lists(_WORDS, min_size=1, max_size=7).map(" ".join)
_CONTEXT = st.one_of(
    _TEXT,
    st.just(""),
    st.sampled_from([" ", "\n\t", "\u00a0"]),
    st.tuples(st.sampled_from([" ", "\n", "\u2003"]), _TEXT, st.sampled_from([" ", "\t", "\u00a0"])).map("".join),
)
_STATEMENTS = st.lists(_TEXT, max_size=4).map(lambda texts: " ".join(t + "." for t in texts))


@st.composite
def _records(draw) -> EvalRecord:
    pool = draw(st.lists(_CONTEXT, min_size=1, max_size=3))
    contexts = draw(st.lists(st.sampled_from(pool), max_size=5))  # repeats come from the small pool
    ground_truth = draw(_TEXT) + ". " + draw(_STATEMENTS)
    return EvalRecord(question=draw(_TEXT), ground_truth=ground_truth, answer=draw(_STATEMENTS), contexts=contexts)


class TestJoinedStringReference:
    @given(st.lists(_records(), min_size=1, max_size=3))
    def test_metrics_equal_joined_string_reference(self, records):
        judge = LexicalJudge()  # one judge across records, as the eval loop uses it
        for record in records:
            assert evaluate([record], judge, EMBEDDER).per_record == [_joined_string_row(record)]
