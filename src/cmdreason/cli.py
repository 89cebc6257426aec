"""Command-line interface.

Subcommands: run (one configuration), ablate (mode x shots grid), baseline
(random or rules), sample (stratified subset), report (comparison table from
run directories), score (offline re-scoring of a records file).

Exit codes: 0 success, 1 usage error, 2 data error, 3 backend error; a
grid with failed cells exits with the code of the first, in grid order.
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
    write_text,
)
from .errors import BackendError, DataError, UsageError
from .harness import (
    AblationGrid,
    AbortedRun,
    ExperimentSpec,
    REPORT_FORMATS,
    ablation_table,
    clear_run_dir,
    comparison_table,
    load_records,
    load_report,
    render_table,
    report_json_dict,
    run_ablation,
    run_experiment,
    save_run_artifacts,
)
from .metrics import FAILURE_POLICIES, EvalReport, PredictionRecord, evaluate
from .prompt import ExplanationMode, default_template_path, load_template

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # raise instead of exiting with 2
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _print_report(label: str, report: EvalReport) -> None:
    print(comparison_table([report_json_dict(label, report)], "table"), end="")
    if report.n_parse_failures:
        print(
            f"parse failures: {report.n_parse_failures} of {report.n_commands}"
            f" (policy: {report.failure_policy})"
        )


def _spec(args: argparse.Namespace, cell: tuple[ExplanationMode, int] | None = None) -> ExperimentSpec:
    """The spec that run's and ablate's shared flags name, over the template or its (mode, shots)."""
    template = load_template(args.template or default_template_path())
    prompt_config = template if cell is None else template.config(*cell)
    try:
        backend_config = BackendConfig(endpoint_url=args.endpoint, model_name=args.model)
    except ValueError as exc:  # an empty or unencodable --endpoint or --model
        raise UsageError(str(exc)) from exc
    return ExperimentSpec(args.dataset, prompt_config, backend_config, args.out, args.policy)


# =============================================================================
# Subcommand handlers
# =============================================================================


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        result = run_experiment(_spec(args, (ExplanationMode(args.mode), args.shots)))
    except AbortedRun as exc:
        print(f"requests sent: {exc.n_backend_attempts}")
        raise
    _print_report(args.model, result.report)
    print(
        f"cache hits: {result.n_cache_hits} of {len(result.records)}; "
        f"requests sent: {result.n_backend_attempts}"
    )
    print(f"artifacts written to {args.out}")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    try:
        modes = tuple(ExplanationMode(m.strip()) for m in args.modes.split(",") if m.strip())
        shot_counts = tuple(int(s) for s in args.shots.split(",") if s.strip())
    except ValueError as exc:
        raise UsageError(f"bad --modes/--shots value: {exc}") from exc
    try:
        grid = AblationGrid(_spec(args), modes, shot_counts)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cells = run_ablation(grid)
    print(ablation_table(cells, "table"), end="")
    failed = [c for c in cells if c.error is not None]
    if failed:
        print(f"{len(failed)} of {len(cells)} cells failed; see {args.out}/ablation.json")
        return 2 if isinstance(failed[0].error, DataError) else 3
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
    rows = [
        [
            title,
            f"{float(fr):.4f}",
            f"{float(sr):.4f}",
            f"{abs(float(sr) - float(fr)):.4f}",
        ]
        for title, fr, sr in zip(CATEGORY_TITLES, distribution(data), distribution(subset))
    ]
    print(render_table(["Question", "Full", "Sample", "Deviation"], rows, "table"), end="")
    print(f"wrote {len(subset)} of {len(data)} records to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    rows = [load_report(d) for d in args.run_dirs]
    policies = [row["failure_policy"] for row in rows]
    for run_dir, policy in zip(args.run_dirs, policies):
        if policy != policies[0]:
            raise DataError(f"{run_dir} was scored under failure policy {policy}, "
                            f"{args.run_dirs[0]} under {policies[0]}: a table compares one policy")
    write_text(Path(args.out), comparison_table(rows, args.format))
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

    def spec_parser(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        """A subcommand taking the flags that _spec reads."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--dataset", required=True, help="TSV dataset file")
        p.add_argument("--template", help="prompt template file (default: built-in)")
        p.add_argument("--endpoint", required=True,
                       help="chat-completions base URL, or mock://gold for an offline demo")
        p.add_argument("--model", required=True, help="model name sent to the endpoint")
        p.add_argument("--policy", choices=FAILURE_POLICIES, default="strict")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(handler=handler)
        return p

    run = spec_parser("run", "run one prompt configuration over a dataset", _cmd_run)
    run.add_argument("--shots", type=int, default=3, help="worked examples to include")
    run.add_argument("--mode", choices=[m.value for m in ExplanationMode], default="stepwise")

    ablate = spec_parser("ablate", "run a mode x shot-count grid", _cmd_ablate)
    ablate.add_argument("--modes", default="none,paragraph,stepwise",
                        help="comma-separated explanation modes")
    ablate.add_argument("--shots", default="0,1,2,3,4", help="comma-separated shot counts")

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
