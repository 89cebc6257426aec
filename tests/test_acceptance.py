"""Acceptance gate: one test per shipping criterion, with pinned tolerances.

Each test prints a single PASS/FAIL verdict line (visible with ``pytest -s``
or in captured output on failure) and then asserts, so the suite both
documents and enforces the bar.  Live-model accuracy is deliberately out of
scope here: criterion 8 uses published-style numbers as formatting fixtures
only.
"""
from __future__ import annotations

import random
import shutil
import time
from fractions import Fraction

from conftest import make_shot, sent_in_a_run
from test_metrics import naive_eval, random_instance

from cmdreason.backend import MockChatBackend, ProtocolError, ResponseCache
from cmdreason.baselines import random_classify
from cmdreason.dataset import (
    CATEGORY_TITLES,
    LabeledCommand,
    RequirementVector,
    distribution,
    stratified_sample,
)
from cmdreason.harness import (
    AblationGrid,
    ExperimentSpec,
    comparison_table,
    gold_echo_script,
    run_ablation,
    run_experiment,
)
from cmdreason.backend import BackendConfig
from cmdreason.metrics import PredictionRecord, evaluate, format_percent
from cmdreason.parser import parse_response
from cmdreason.prompt import ExplanationMode, PromptConfig, transcript_prefix
from cmdreason.rng import SplitMix64


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


# =============================================================================
# 1. Random baseline lands at chance level
# =============================================================================


def test_criterion_1_random_baseline_chance_level(toy_data):
    started = time.monotonic()
    n_seeds = 250
    question_total = Fraction(0)
    command_total = Fraction(0)
    for seed in range(n_seeds):
        predictions = [
            PredictionRecord(rec.command_id, vec)
            for rec, vec in zip(toy_data, random_classify(seed, toy_data))
        ]
        report = evaluate(predictions, toy_data, "strict")
        question_total += report.question_level_accuracy
        command_total += report.command_level_accuracy
    question_pct = float(question_total / n_seeds) * 100
    command_pct = float(command_total / n_seeds) * 100
    elapsed = time.monotonic() - started

    ok = (
        abs(question_pct - 50.0) <= 2.0
        and abs(command_pct - 100 / 256) <= 0.35
        and elapsed < 5.0
    )
    verdict(
        1,
        "random baseline at chance",
        ok,
        f"question {question_pct:.2f}% (want 50±2), command {command_pct:.3f}% "
        f"(want {100 / 256:.3f}±0.35), {elapsed:.2f}s over {n_seeds} seeds",
    )


# =============================================================================
# 2. End-to-end oracle: gold-echo mock scores perfectly
# =============================================================================


def test_criterion_2_end_to_end_gold_oracle(toy_path, toy_data, template, tmp_path):
    started = time.monotonic()
    spec = ExperimentSpec(
        dataset_path=toy_path,
        prompt_config=template.config(ExplanationMode.STEPWISE, 3),
        backend_config=BackendConfig(endpoint_url="mock://gold", model_name="gold-echo"),
        output_dir=str(tmp_path / "run"),
    )
    result = run_experiment(
        spec,
        MockChatBackend(
            gold_echo_script(toy_data), spec.backend_config, ResponseCache(tmp_path / "c")
        ),
    )
    elapsed = time.monotonic() - started
    exact = (
        result.report.command_level_accuracy == 1
        and result.report.question_level_accuracy == 1
        and result.report.per_question_accuracy == (Fraction(1),) * 8
    )
    ok = exact and elapsed < 1.0
    verdict(
        2,
        "gold-echo end to end",
        ok,
        f"command {format_percent(result.report.command_level_accuracy)}%, "
        f"question {format_percent(result.report.question_level_accuracy)}%, {elapsed:.2f}s",
    )


# =============================================================================
# 3. Parser corpus
# =============================================================================

WORKED_OUTPUT_A = """Explanation:
Step 1: No, it doesn't involve any movement, sense or detect the surrounding.
Step 2: Yes, it requires to use the in-cabin multimedia to call the people.
Step 3: No, it does not depend on the vehicle's position on the map.
Step 4: No, it does not change the motion of the vehicle.
Step 5: Yes, the call is placed through the multimedia system.
Step 6: Yes, it needs the user's contact list to find Carol.
Step 7: Yes, placing a call needs a network connection.
Step 8: No, it is not a risky command.
Therefore, the output should be : [0 1 0 0 1 1 1 0]."""

WORKED_OUTPUT_B = """The command asks the vehicle to make an illegal U-turn, which needs the
perception system, localization, and vehicle control, and clearly risks
violating traffic laws.
Therefore, the output should be : [1 0 1 1 0 0 0 1]."""


def steps(answers: list[str]) -> str:
    return "\n".join(f"Step {k}: {a}" for k, a in enumerate(answers, start=1))


# (response text, expected bits or ("fail", reason))
PARSER_CORPUS = [
    (WORKED_OUTPUT_A, "01001110"),
    (WORKED_OUTPUT_B, "10110001"),
    ("Output is [0 0 0 0 0 0 0 0].", "00000000"),
    ("Output is [1 1 1 1 1 1 1 1]", "11111111"),
    ("[0,1,0,0,1,1,1,0]", "01001110"),
    ("[ 1 , 0 , 1 , 1 , 0 , 0 , 0 , 1 ]", "10110001"),
    ("answer:\n[0 1 0\n0 1 1 1 0]", "01001110"),
    # the format restatement is not a qualifying group; the real answer is
    ("Output is [A1 A2 A3 A4 A5 A6 A7 A8]. Output is [0 1 0 0 1 1 1 0].", "01001110"),
    # last qualifying group wins
    ("Draft: [1 1 1 1 1 1 1 1]\nCorrected: [1 0 0 0 0 0 0 0]", "10000000"),
    ("[0 1 0 0 1 1 1] then the full one [0 1 0 0 1 1 1 0]", "01001110"),
    ("[0 1 2 0 1 1 1 0] was wrong, use [0 1 0 0 1 1 1 0]", "01001110"),
    ("Some prose around [1 1 0 0 0 0 0 0] more prose.", "11000000"),
    # bracket stage wins even when step lines disagree
    (steps(["No."] * 8) + "\nOutput is [1 1 1 1 1 1 1 1].", "11111111"),
    # step fallback
    (steps(["No, a.", "Yes, b.", "No, c.", "No, d.", "Yes, e.", "Yes, f.", "Yes, g.", "No, h."]),
     "01001110"),
    ("\n".join(f"STEP {k}: YES, needed." for k in range(1, 9)), "11111111"),
    ("\n".join(f"- Step {k}: \"No\", skip it." for k in range(1, 9)), "00000000"),
    ("\n".join(f"step {k} : yes" for k in range(1, 9)), "11111111"),
    (steps(["Yes."] * 8) + "\nStep 9: No, out of range.", "11111111"),
    ("Thinking...\n" + steps(["Yes, sure."] * 8) + "\nDone.", "11111111"),
    (steps(["No."] * 8) + "\n[not an answer vector]", "00000000"),
    # failures: nothing recognizable
    ("I cannot help with that request.", ("fail", "no_bracket_no_steps")),
    ("", ("fail", "no_bracket_no_steps")),
    ("Output is [A1 A2 A3 A4 A5 A6 A7 A8].", ("fail", "no_bracket_no_steps")),
    # failures: missing steps
    ("\n".join(f"Step {k}: Yes." for k in (1, 2, 3, 5, 6, 7, 8)), ("fail", "missing_step(4)")),
    ("\n".join(f"Step {k}: Yes." for k in (2, 3, 4, 5, 6, 7, 8)), ("fail", "missing_step(1)")),
    ("Step 8 is the only one I am sure about.\nStep 8: Yes.", ("fail", "missing_step(1)")),
    # failures: duplicates
    (steps(["Yes."] * 8) + "\nStep 3: No, changed my mind.", ("fail", "duplicate_step")),
    ("Step 1: Yes.\nStep 1: No.\n" + "\n".join(f"Step {k}: Yes." for k in range(2, 9)),
     ("fail", "duplicate_step")),
    # failures: step present but no readable yes/no
    (steps(["Yes."] * 5 + ["It depends on the weather."] + ["Yes."] * 2),
     ("fail", "ambiguous_step(6)")),
    ("Step 1: Probably fine.\n" + "\n".join(f"Step {k}: No." for k in range(2, 9)),
     ("fail", "ambiguous_step(1)")),
    # ascending-k reporting: step 2 missing beats step 5 ambiguous
    ("\n".join(f"Step {k}: Yes." for k in (1, 3, 4, 6, 7, 8)) + "\nStep 5: Unclear.",
     ("fail", "missing_step(2)")),
    # colon required on step lines
    (steps(["Yes."] * 7) + "\nStep 8 Yes.", ("fail", "missing_step(8)")),
]


def test_criterion_3_parser_corpus():
    wrong = []
    for text, expected in PARSER_CORPUS:
        outcome = parse_response(text)
        if isinstance(expected, str):
            if outcome.vector is None or outcome.vector.bits() != expected:
                wrong.append((text[:40], expected, outcome))
        else:
            if outcome.vector is not None or outcome.failure_reason != expected[1]:
                wrong.append((text[:40], expected, outcome))
    ok = len(PARSER_CORPUS) >= 30 and not wrong
    verdict(
        3,
        "parser corpus",
        ok,
        f"{len(PARSER_CORPUS) - len(wrong)}/{len(PARSER_CORPUS)} cases correct"
        + (f"; first wrong: {wrong[0]}" if wrong else ""),
    )


# =============================================================================
# 4. Metrics equivalence against a naive counter
# =============================================================================


def test_criterion_4_metrics_match_brute_force():
    started = time.monotonic()
    rng = SplitMix64(777)
    mismatches = 0
    for _ in range(1000):
        predictions, gold_records = random_instance(rng)
        for policy in ("strict", "exclude"):
            fast = evaluate(predictions, gold_records, policy)
            slow = naive_eval(predictions, gold_records, policy)
            if fast != slow:
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 5.0
    verdict(
        4,
        "metrics vs brute force",
        ok,
        f"{mismatches} mismatches over 1000 instances x 2 policies, {elapsed:.2f}s",
    )


# =============================================================================
# 5. Message-count law
# =============================================================================


def test_criterion_5_message_count_law(template, tmp_path):
    pool = tuple(
        make_shot(f"Example command {i}.", f"{i % 2}{(i + 1) % 2}000000") for i in range(8)
    )
    rng = random.Random(1234)
    alphabet = "abcdefghijklmnopqrstuvwxyz ,.!?'"
    commands_by_shots: dict[int, list[str]] = {}
    for _ in range(500):
        command = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 80)))
        if not command.strip():
            command = "fallback command"
        commands_by_shots.setdefault(rng.randint(0, 8), []).append(command)
    # each shot count's commands go out in one run; a command is checked against
    # the transcript that the backend's script received for it
    violations = 0
    for shots, commands in sorted(commands_by_shots.items()):
        config = PromptConfig(
            mode=ExplanationMode.STEPWISE,
            shots=pool[:shots],
            question_texts=template.question_texts,
            preamble=template.preamble,
            format_instruction=template.format_instruction,
        )
        prefix = transcript_prefix(config)
        sent = sent_in_a_run(config, commands, tmp_path / str(shots))
        received = {transcript[-1]["content"]: transcript for transcript in sent}
        for command in commands:
            transcript = received.get(command)
            if (
                len(prefix) != 1 + 2 * shots
                or transcript is None
                or len(transcript) != 2 + 2 * shots
                or transcript[:-1] != prefix
            ):
                violations += 1
    ok = violations == 0
    verdict(5, "message-count law", ok, f"{violations} violations over 500 random commands")


# =============================================================================
# 6. Stratified sampler on a synthetic 400-record set
# =============================================================================


def synthetic_400() -> list[LabeledCommand]:
    rates = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    rng = SplitMix64(31337)
    columns = []
    for rate in rates:
        ones = round(rate * 400)
        column = [True] * ones + [False] * (400 - ones)
        for i in range(399, 0, -1):
            j = rng.randrange(i + 1)
            column[i], column[j] = column[j], column[i]
        columns.append(column)
    return [
        LabeledCommand(f"syn{i:03d}", f"synthetic {i}", RequirementVector(tuple(c[i] for c in columns)))
        for i in range(400)
    ]


def test_criterion_6_stratified_sampler():
    data = synthetic_400()
    sample = stratified_sample(data, 100, seed=42, tolerance=0.05)
    full = distribution(data)
    sub = distribution(sample)
    max_dev = max(
        abs(float(sr) - float(fr))
        for sr, fr in zip(sub, full)
    )
    again = stratified_sample(data, 100, seed=42, tolerance=0.05)
    same_ids = [r.command_id for r in sample] == [r.command_id for r in again]
    ok = len(sample) == 100 and max_dev <= 0.05 and same_ids
    verdict(
        6,
        "stratified sampler",
        ok,
        f"n={len(sample)}, recounted max deviation {max_dev:.4f} (tol 0.05), "
        f"seed-stable ids: {same_ids}",
    )


# =============================================================================
# 7. Determinism and resumability of a full mock grid
# =============================================================================


def snapshot(root) -> dict:
    return {
        p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def full_grid(toy_path, template, out_dir) -> AblationGrid:
    base = ExperimentSpec(
        dataset_path=toy_path,
        prompt_config=template.config(ExplanationMode.STEPWISE, 4),
        backend_config=BackendConfig(endpoint_url="mock://gold", model_name="gold-echo"),
        output_dir=str(out_dir),
    )
    return AblationGrid(
        base,
        (ExplanationMode.NONE, ExplanationMode.PARAGRAPH, ExplanationMode.STEPWISE),
        (0, 1, 2, 3, 4),
    )


class DyingScript:
    """Answers from gold until the budget runs out, then refuses everything."""

    def __init__(self, script, budget: int):
        self.script = script
        self.budget = budget
        import threading

        self.lock = threading.Lock()

    def __call__(self, transcript):
        with self.lock:
            self.budget -= 1
            if self.budget < 0:
                raise ProtocolError("simulated mid-grid crash")
        return self.script[transcript[-1]["content"]]


def test_criterion_7_grid_determinism_and_resume(toy_path, toy_data, template, tmp_path):
    out = tmp_path / "grid"
    grid = full_grid(toy_path, template, out)
    config = grid.base.backend_config
    backend = MockChatBackend(
        gold_echo_script(toy_data), config, ResponseCache(tmp_path / "cache1")
    )
    cells_first = run_ablation(grid, backend)
    first = snapshot(out)
    cells_second = run_ablation(grid, backend)
    second = snapshot(out)
    repeat_identical = first == second and all(c.error is None for c in cells_first + cells_second)

    # interrupted run: backend dies after 40 responses, then a healthy backend
    # resumes against the same cache and the same output directory
    cache2 = ResponseCache(tmp_path / "cache2")
    dying = MockChatBackend(DyingScript(gold_echo_script(toy_data), budget=40), config, cache2)
    interrupted_cells = run_ablation(grid, dying)
    interrupted_failures = sum(1 for c in interrupted_cells if c.error is not None)
    healthy = MockChatBackend(gold_echo_script(toy_data), config, cache2)
    run_ablation(grid, healthy)
    resumed = snapshot(out)

    shutil.rmtree(out)
    clean_backend = MockChatBackend(
        gold_echo_script(toy_data), config, ResponseCache(tmp_path / "cache3")
    )
    run_ablation(grid, clean_backend)
    clean = snapshot(out)
    resume_identical = resumed == clean

    ok = repeat_identical and resume_identical and interrupted_failures > 0
    verdict(
        7,
        "grid determinism and resumability",
        ok,
        f"repeat byte-identical: {repeat_identical} ({len(first)} files); "
        f"interrupted cells: {interrupted_failures}; resumed == clean: {resume_identical}",
    )


# =============================================================================
# 8. Live-model numbers are fixtures only
# =============================================================================

# Published-style comparison rows used purely to exercise report layout;
# nothing below asserts that any live model reproduces them.
FIXTURE_ROWS = [
    {
        "label": label, "command_level": command, "question_level": question,
        "per_question": dict(zip(CATEGORY_TITLES, per_question)),
    }
    for label, command, question, per_question in (
        ("Random", "0.36", "49.44",
         ("50.59", "47.68", "51.96", "48.95", "47.86", "48.23", "50.59", "49.68")),
        ("GPT-4", "38.03", "89.02",
         ("93.18", "74.89", "91.54", "88.63", "94.45", "85.99", "91.99", "91.54")),
    )
]


def test_criterion_8_live_numbers_are_formatting_fixtures_only(tmp_path):
    text = comparison_table(FIXTURE_ROWS, "md")
    layout_ok = (
        text.splitlines()[0].startswith("| Method | Command | Overall | Perception |")
        and "| GPT-4 | 38.03 | 89.02 | 93.18 |" in text
        and "| Random | 0.36 | 49.44 |" in text
    )
    # the formatter reproduces the fixture precision from exact fractions
    formatting_ok = (
        format_percent(Fraction(8902, 10000)) == "89.02"
        and format_percent(Fraction(3803, 10000)) == "38.03"
    )
    ok = layout_ok and formatting_ok
    verdict(
        8,
        "live numbers as formatting fixtures only",
        ok,
        "report layout renders published-style rows; no live-model accuracy asserted",
    )
