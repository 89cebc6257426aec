"""Command-line interface.

Subcommands: run (one configuration), ablate (mode x shots grid), baseline
(random or rules), sample (stratified subset), report (comparison table from
run directories), score (offline re-scoring of a records file).

Exit codes: 0 success, 1 usage error, 2 data error, 3 backend error.
"""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .backend import BackendConfig
from .baselines import load_rules, random_classify, rule_classify
from .dataset import (
    CATEGORY_TITLES,
    distribution,
    load_dataset,
    save_dataset,
    stratified_sample,
)
from .errors import BackendError, DataError, UsageError
from .harness import (
    AblationGrid,
    ExperimentSpec,
    REPORT_FORMATS,
    ResultRow,
    ablation_table,
    clear_run_dir,
    comparison_table,
    emit_report,
    load_records,
    load_result_row,
    render_table,
    run_ablation,
    run_experiment,
    save_run_artifacts,
)
from .metrics import FAILURE_POLICIES, EvalReport, PredictionRecord, evaluate
from .prompt import MODE_ORDER, ExplanationMode, default_template_path, load_template

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # raise instead of exiting with 2
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _print_report(label: str, report: EvalReport) -> None:
    print(comparison_table([ResultRow.from_eval(label, report)], "table"), end="")
    if report.n_parse_failures:
        print(
            f"parse failures: {report.n_parse_failures} of {report.n_commands}"
            f" (policy: {report.failure_policy})"
        )


def _load_template(args: argparse.Namespace):
    return load_template(args.template if args.template else default_template_path())


def _backend_config(args: argparse.Namespace) -> BackendConfig:
    return BackendConfig(endpoint_url=args.endpoint, model_name=args.model)


# =============================================================================
# Subcommand handlers
# =============================================================================


def _cmd_run(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        dataset_path=args.dataset,
        prompt_config=_load_template(args).config(ExplanationMode(args.mode), args.shots),
        backend_config=_backend_config(args),
        output_dir=args.out,
        failure_policy=args.policy,
    )
    result = run_experiment(spec)
    _print_report(args.model, result.report)
    print(
        f"cache hits: {result.n_cache_hits} of {len(result.records)}; "
        f"requests sent: {result.n_backend_attempts}"
    )
    print(f"artifacts written to {result.output_dir}")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    try:
        modes = tuple(ExplanationMode(m.strip()) for m in args.modes.split(",") if m.strip())
        shot_counts = tuple(int(s) for s in args.shots.split(",") if s.strip())
    except ValueError as exc:
        raise UsageError(f"bad --modes/--shots value: {exc}") from exc
    if not modes or not shot_counts:
        raise UsageError("--modes and --shots must each name at least one value")
    template = _load_template(args)
    base = ExperimentSpec(
        dataset_path=args.dataset,
        prompt_config=template,
        backend_config=_backend_config(args),
        output_dir=args.out,
        failure_policy=args.policy,
    )
    try:
        grid = AblationGrid(base, modes, shot_counts)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cells = run_ablation(grid)
    print(ablation_table(cells, "table"), end="")
    failed = [c for c in cells if c.error is not None]
    if failed:
        print(f"{len(failed)} of {len(cells)} cells failed; see {args.out}/ablation.json")
        return 3
    print(f"artifacts written to {args.out}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    data = load_dataset(args.dataset)
    if args.random:
        vectors = random_classify(args.seed, data)
        label = f"random(seed={args.seed})"
    else:
        ruleset = load_rules(args.rules)
        vectors = [rule_classify(ruleset, rec.text) for rec in data]
        label = f"rules({Path(args.rules).name})"
    records = [PredictionRecord(rec.command_id, vec) for rec, vec in zip(data, vectors)]
    report = evaluate(records, data, "strict")
    save_run_artifacts(clear_run_dir(args.out), label, data, records, report)
    _print_report(label, report)
    print(f"artifacts written to {args.out}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    data = load_dataset(args.dataset)
    try:
        subset = stratified_sample(data, args.n, args.seed, args.tolerance)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    save_dataset(subset, args.out)
    full = distribution(data)
    sub = distribution(subset)
    rows = [
        [
            title,
            f"{float(fr):.4f}",
            f"{float(sr):.4f}",
            f"{abs(float(sr) - float(fr)):.4f}",
        ]
        for title, fr, sr in zip(CATEGORY_TITLES, full.positive_rate, sub.positive_rate)
    ]
    print(render_table(["Question", "Full", "Sample", "Deviation"], rows, "table"), end="")
    print(f"wrote {len(subset)} of {len(data)} records to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    rows = [load_result_row(d) for d in args.run_dirs]
    emit_report(rows, args.format, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    records = load_records(args.records)
    data = load_dataset(args.dataset)
    report = evaluate(records, data, args.policy)
    _print_report(f"rescore({Path(args.records).name})", report)
    return 0


# =============================================================================
# Parser wiring
# =============================================================================


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cmdreason",
        description="Classify vehicle commands into 8 binary system requirements "
        "with chat-completion models; evaluate against gold labels.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add_backend_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--endpoint", required=True,
                       help="chat-completions base URL, or mock://gold for an offline demo")
        p.add_argument("--model", required=True, help="model name sent to the endpoint")

    run = sub.add_parser("run", help="run one prompt configuration over a dataset")
    run.add_argument("--dataset", required=True, help="TSV dataset file")
    run.add_argument("--template", help="prompt template file (default: built-in)")
    run.add_argument("--shots", type=int, default=3, help="worked examples to include")
    run.add_argument("--mode", choices=[m.value for m in MODE_ORDER], default="stepwise")
    add_backend_args(run)
    run.add_argument("--policy", choices=FAILURE_POLICIES, default="strict")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(handler=_cmd_run)

    ablate = sub.add_parser("ablate", help="run a mode x shot-count grid")
    ablate.add_argument("--dataset", required=True)
    ablate.add_argument("--template", help="prompt template file (default: built-in)")
    ablate.add_argument("--modes", default="none,paragraph,stepwise",
                        help="comma-separated explanation modes")
    ablate.add_argument("--shots", default="0,1,2,3,4", help="comma-separated shot counts")
    add_backend_args(ablate)
    ablate.add_argument("--policy", choices=FAILURE_POLICIES, default="strict")
    ablate.add_argument("--out", required=True, help="output directory")
    ablate.set_defaults(handler=_cmd_ablate)

    baseline = sub.add_parser("baseline", help="score a non-LLM reference classifier")
    baseline.add_argument("--dataset", required=True)
    which = baseline.add_mutually_exclusive_group(required=True)
    which.add_argument("--random", action="store_true", help="seeded coin-flip baseline")
    which.add_argument("--rules", help="keyword rules TSV file")
    baseline.add_argument("--seed", type=int, default=0, help="seed for --random")
    baseline.add_argument("--out", required=True, help="output directory")
    baseline.set_defaults(handler=_cmd_baseline)

    sample = sub.add_parser("sample", help="draw a label-preserving subset")
    sample.add_argument("--dataset", required=True)
    sample.add_argument("--n", type=int, required=True, help="subset size")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--tolerance", type=float, default=0.05,
                        help="max allowed per-question rate deviation")
    sample.add_argument("--out", required=True, help="output TSV file")
    sample.set_defaults(handler=_cmd_sample)

    report = sub.add_parser("report", help="tabulate finished runs side by side")
    report.add_argument("--in", dest="run_dirs", nargs="+", required=True,
                        metavar="DIR", help="run directories containing report.json")
    report.add_argument("--format", choices=REPORT_FORMATS, default="table")
    report.add_argument("--out", required=True, help="output file")
    report.set_defaults(handler=_cmd_report)

    score = sub.add_parser("score", help="re-score a records.jsonl against a dataset")
    score.add_argument("--records", required=True, help="records.jsonl from a run")
    score.add_argument("--dataset", required=True)
    score.add_argument("--policy", choices=FAILURE_POLICIES, default="strict")
    score.set_defaults(handler=_cmd_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
