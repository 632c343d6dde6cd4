"""Command-line interface for the toolkit.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors (unreadable
files, schema violations, unparseable commands).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from . import __version__
from .corpus import (
    build_splits,
    filter_examples,
    load_examples,
    save_examples,
    save_filter_report,
    utility_histogram,
)
from .errors import InvalidFractionsError, NlbashError
from .harness import (
    SubprocessPredictor,
    emit_report,
    evaluate,
    score_prediction_file,
)
from .metric import DEFAULT_TOP_K
from .parser import parse
from .retrieval import (
    TfIdfPredictor,
    make_calibration_data,
    pairs_from_examples,
    save_index,
    train_calibrator,
)
from .template import flatten_utilities, normalize_template
from .vocab import default_vocabulary, load_vocabulary


class UsageError(Exception):
    pass


def _load_filtered(path, vocab):
    examples = load_examples(path)
    report = filter_examples(examples, vocab)
    if report.rejected:
        print(f"filtered out {len(report.rejected)} of {len(examples)} examples", file=sys.stderr)
    return report.kept


def _print_report(report, out: str | None) -> int:
    """Print ``report``'s table, and write its JSON to ``out`` when given; with
    ``out`` "-" print the JSON, its last line ended, in place of the table."""
    if out == "-":
        print(emit_report(report, "json").decode("utf-8"))
        return 0
    if out:
        with open(out, "wb") as fh:
            fh.write(emit_report(report, "json"))
    sys.stdout.write(emit_report(report, "table").decode("utf-8"))
    return 0


def _cmd_parse(args, vocab):
    ast = parse(args.command, vocab)
    template = normalize_template(ast)  # one unit per command of ast.walk(), in order
    units = [(u, cmd.erased_args) for u, cmd in zip(template.units, ast.walk())]
    if args.json:
        payload = {
            "utilities": flatten_utilities(ast),
            "template": [
                {"utility": u.utility, "flags": sorted(u.flags), "erased_args": n}
                for u, n in units
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print("pipeline:", " | ".join(s.utility for s in ast.stages))
        print("template:")
        for unit, erased in units:
            flags = " ".join(sorted(unit.flags)) or "-"
            suffix = f"  ({erased} arg{'s' if erased != 1 else ''} erased)" if erased else ""
            print(f"  {unit.utility:<12} flags: {flags}{suffix}")
    return 0


def _cmd_filter(args, vocab):
    examples = load_examples(args.data)
    report = filter_examples(examples, vocab)
    save_filter_report(report, args.out, args.rejected)
    print(f"kept {len(report.kept)}, rejected {len(report.rejected)}")
    return 0


def _cmd_split(args):
    examples = load_examples(args.data)
    fractions = args.fractions.split(",")
    try:
        train, val, test = build_splits(examples, seed=args.seed, fractions=fractions)
    except InvalidFractionsError as exc:
        raise UsageError(f"--fractions: {exc}") from exc
    for name, part in (("train", train), ("val", val), ("test", test)):
        path = f"{args.out_prefix}.{name}.jsonl"
        save_examples(part, path)
        print(f"{name}: {len(part)} -> {path}")
    return 0


def _cmd_stats(args, vocab):
    examples = _load_filtered(args.data, vocab)
    histogram = utility_histogram(examples, vocab)
    for utility, count in histogram[: args.top]:
        print(f"{count:>7}  {utility}")
    return 0


def _cmd_score(args, vocab):
    dataset = _load_filtered(args.refs, vocab)
    return _print_report(score_prediction_file(args.pred, dataset, k=args.k, vocab=vocab), args.out)


def _cmd_index(args, vocab):
    examples = _load_filtered(args.data, vocab)
    pairs = pairs_from_examples(examples)
    save_index(pairs, args.out, args.normalize)  # TfIdfIndex.load builds the index
    print(f"indexed {len(pairs)} pairs -> {args.out}")
    return 0


def _cmd_calibrate(args, vocab):
    examples = _load_filtered(args.data, vocab)
    features, labels = make_calibration_data(
        pairs_from_examples(examples),
        vocab=vocab,
        seed=args.seed,
        k=args.k,
        normalize=True,
    )
    model = train_calibrator(features, labels)
    model.save(args.out)
    positive = sum(labels)
    print(f"trained on {len(labels)} hits ({positive} positive) -> {args.out}")
    return 0


def _make_baseline(args, pairs, vocab):
    variant = args.variant
    if variant == "raw":
        return TfIdfPredictor(pairs, vocab)
    if variant == "dedup":
        return TfIdfPredictor(pairs, vocab, dedupe=True)
    if variant == "normalize":
        return TfIdfPredictor(pairs, vocab, dedupe=True, normalize=True)
    return TfIdfPredictor.with_calibration(
        pairs, vocab, normalize=True, dedupe=True, seed=args.seed, k=args.k
    )


def _cmd_eval(args, vocab):
    dataset = _load_filtered(args.data, vocab)
    if args.baseline:
        if not args.train:
            raise UsageError("--baseline tfidf requires --train")
        train_examples = _load_filtered(args.train, vocab)
        predictor = _make_baseline(args, pairs_from_examples(train_examples), vocab)
        report = evaluate(predictor, dataset, k=args.k, vocab=vocab)
    else:
        with SubprocessPredictor(args.predictor_cmd) as predictor:
            report = evaluate(predictor, dataset, k=args.k, vocab=vocab)
    return _print_report(report, args.out)


def _int_at_least(lowest: int):
    """An argparse type: an integer no smaller than ``lowest``."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lowest - 1
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lowest}, got {text!r}")
        return value

    return convert


def _command_line(text: str) -> list[str]:
    try:
        argv = shlex.split(text)
    except ValueError as exc:  # an unclosed quote or a trailing escape
        raise argparse.ArgumentTypeError(f"cannot split {text!r}: {exc}") from exc
    if not argv:
        raise argparse.ArgumentTypeError(f"names no program: {text!r}")
    return argv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlbash",
        description="Parse Bash commands into templates and score NL-to-Bash translators.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    vocab_arg = argparse.ArgumentParser(add_help=False)
    vocab_arg.add_argument("--vocab")
    k_arg = argparse.ArgumentParser(add_help=False)
    k_arg.add_argument("--k", type=_int_at_least(1), default=DEFAULT_TOP_K)
    report_arg = argparse.ArgumentParser(add_help=False)
    report_arg.add_argument("--out", help="also write the JSON report to this file; '-' prints it instead of the table")

    p = sub.add_parser(
        "parse", parents=[vocab_arg], help="print the pipeline and template of one command"
    )
    p.add_argument("command")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser(
        "filter",
        parents=[vocab_arg],
        help="apply parse/round-trip/whitelist filtering to a dataset",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rejected")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("split", help="build deterministic train/val/test splits")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fractions", default="0.8,0.1,0.1")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser(
        "stats", parents=[vocab_arg], help="utility frequency histogram of a dataset"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--top", type=_int_at_least(1), default=15)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "score",
        parents=[vocab_arg, k_arg, report_arg],
        help="score a prediction file against references offline",
    )
    p.add_argument("--pred", required=True)
    p.add_argument("--refs", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser(
        "index",
        parents=[vocab_arg],
        help="persist the filtered pairs of a TF-IDF index; the index is built when loaded",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser(
        "calibrate", parents=[vocab_arg, k_arg], help="train a confidence calibration model"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser(
        "eval", parents=[vocab_arg, k_arg, report_arg], help="evaluate a baseline or external predictor"
    )
    p.add_argument("--data", required=True)
    one_predictor = p.add_mutually_exclusive_group(required=True)
    one_predictor.add_argument("--baseline", choices=["tfidf"])
    one_predictor.add_argument(
        "--predictor-cmd",
        type=_command_line,
        help="external predictor command (line-delimited JSON)",
    )
    p.add_argument("--variant", choices=["raw", "dedup", "normalize", "full"], default="full")
    p.add_argument("--train", help="training data for --baseline tfidf")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_eval)

    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if "vocab" not in args:  # split reads no vocabulary
            return args.func(args)
        vocab = load_vocabulary(args.vocab) if args.vocab else default_vocabulary()
        return args.func(args, vocab)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NlbashError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
