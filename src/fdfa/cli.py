"""Command-line front end.

Every subcommand reads machines in the ``dfa v1`` text format and writes
deterministic output: a machine-readable verdict on the first stdout line,
detail lines after it.  Exit codes: 0 = success or affirmative verdict,
1 = negative verdict, 2 = usage or validation error.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .classes import state_class_partition
from .construct import construct_pair
from .core import Dfa
from .fmin import f_minimize
from .formats import (
    EPSILON_TOKEN,
    DfaFormatError,
    _parse,
    _read_words,
    _trimmed,
    format_word,
    serialize_dfa,
)
from .iso import finite_part_iso, infinite_part_iso
from .language import symmetric_difference
from .minimize import minimize
from .parts import compute_parts
from .rand import random_dfa


class CliError(Exception):
    """Anything that should abort with exit code 2."""


def _read(path: str) -> str:
    """The file's text, decoded in one step, with the line ends of text mode."""
    try:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from exc
    if "\r" in text:
        # as universal newlines: \r\n and a lone \r both end a line as \n
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load(path: str, *, complete: bool = False) -> Dfa:
    try:
        d, dropped = _parse(_read(path), complete)
    except DfaFormatError as exc:
        raise CliError(f"{path}: {exc}") from exc
    if dropped:
        print(f"warning: {path}: {_trimmed(dropped)}", file=sys.stderr)
    return d


def _write_dfa(d: Dfa, path: str | None) -> None:
    text = serialize_dfa(d)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _ids(ids) -> str:
    return "".join(f" {i}" for i in sorted(ids))


def _cmd_check(args) -> int:
    d = _load(args.file, complete=args.complete)
    print("ok")
    print(f"states {d.n_states}")
    print(f"alphabet {d.alphabet}")
    print(f"start {d.start}")
    acc = _ids(d.accepting)
    print(f"accepting{acc}" if acc else "accepting -")
    if args.output is not None:
        _write_dfa(d, args.output)
    return 0


def _cmd_minimize(args) -> int:
    d = _load(args.file)
    _write_dfa(minimize(d), args.output)
    return 0


def _cmd_fminimize(args) -> int:
    d = _load(args.file)
    result, records = f_minimize(d)
    if args.trace:
        for r in records:
            print(
                f"merge p={r.merged} into q={r.target} class={r.class_id} "
                f"bound={r.n_into}x{r.n_diff}"
            )
    _write_dfa(result, args.output)
    return 0


def _cmd_parts(args) -> int:
    d = _load(args.file)
    parts = compute_parts(d)
    print(f"finite:{_ids(parts.finite)}")
    print(f"infinite:{_ids(parts.infinite)}")
    return 0


def _cmd_classes(args) -> int:
    d = _load(args.file)
    partition = state_class_partition(d)
    for cls in partition.classes:
        print(f"class {cls[0]}:{_ids(cls)}")
    return 0


def _cmd_diff(args) -> int:
    a = _load(args.left)
    b = _load(args.right)
    diff = symmetric_difference(a, b)
    if diff.finite:
        text = diff.text
        # in shortlex order only the first word can be ε, which prints as @
        eps = EPSILON_TOKEN if text.startswith("\n") else ""
        n = text.count("\n")
        sys.stdout.write(f"finite {n}\n{eps}{text}")
        return 0
    lasso = diff.witness
    print("infinite")
    print(
        f"witness {format_word(lasso.prefix)} "
        f"{format_word(lasso.pump)} {format_word(lasso.suffix)}"
    )
    return 1


def _cmd_findiff(args) -> int:
    a = _load(args.left)
    b = _load(args.right)
    verdict = symmetric_difference(a, b).finite
    print("finitely-different" if verdict else "not-finitely-different")
    return 0 if verdict else 1


def _cmd_iso(args) -> int:
    a = _load(args.left)
    b = _load(args.right)
    if args.part == "infinite":
        bijection = infinite_part_iso(a, b)
    else:
        bijection = finite_part_iso(a, b)
    if bijection is None:
        print("NOT-ISOMORPHIC")
        return 1
    for q, q2 in bijection.mapping:
        print(f"{q} -> {q2}")
    return 0


def _cmd_construct(args) -> int:
    try:
        words = _read_words(_read(args.words), args.alphabet)
    except DfaFormatError as exc:
        raise CliError(f"{args.words}: {exc}") from exc
    left, right = construct_pair(words, args.alphabet)
    if args.minimize:
        left, right = minimize(left), minimize(right)
    _write_dfa(left, args.out_left)
    _write_dfa(right, args.out_right)
    return 0


def _cmd_random(args) -> int:
    if args.states < 1:
        raise CliError("--states must be at least 1")
    d = random_dfa(args.states, args.alphabet, args.seed)
    _write_dfa(d, args.output)
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``fdfa`` parser and each command's subparser, by command name."""
    parser = argparse.ArgumentParser(
        prog="fdfa",
        description="Analyze DFAs whose languages differ by finitely many words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a machine file")
    p.add_argument("file")
    p.add_argument("--complete", action="store_true",
                   help="add a rejecting sink for missing transitions")
    p.add_argument("-o", "--output", help="write the canonical form here")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("minimize", help="minimize a machine")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("fminimize", help="greedily merge away redundant finite-part states")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument("--trace", action="store_true", help="print one line per merge")
    p.set_defaults(func=_cmd_fminimize)

    p = sub.add_parser("parts", help="split states into finite and infinite parts")
    p.add_argument("file")
    p.set_defaults(func=_cmd_parts)

    p = sub.add_parser("classes", help="group states by finite difference of induced languages")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("diff", help="list the symmetric difference if finite")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("findiff", help="decide whether two machines are finitely different")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_findiff)

    p = sub.add_parser("iso", help="map one machine's part onto the other's")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--part", choices=("infinite", "finite"), required=True)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("construct", help="build a machine pair differing exactly on given words")
    p.add_argument("--words", required=True, help="file with one word per line, @ for the empty word")
    p.add_argument("--alphabet", required=True)
    p.add_argument("-o1", "--out-left", required=True)
    p.add_argument("-o2", "--out-right", required=True)
    p.add_argument("--minimize", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("random", help="generate a seeded random machine")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_random)

    return parser, dict(sub.choices)


# parsing fills a fresh namespace on every call, so one parser serves every
# request of a process
_PARSER, _COMMANDS = build_parser()


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is None:
        # no command: usage, help or an unknown-command error
        return _PARSER.parse_args(argv)
    # the command's own parser, with the leftover words reported as the
    # top-level parser reports them
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The command runs with automatic cyclic garbage collection paused, and the
    collector is left on or off as it was found.  On a large table a request
    allocates hundreds of thousands of tuples, each of which counts towards
    the next collection.  The package builds no reference cycle, so
    reference counting alone frees its memory; only argparse's usage and help
    messages leave a few objects in one, which a later collection frees.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    # DfaFormatError, AlphabetMismatchError and FMergeError are ValueErrors
    except (CliError, ValueError, OSError) as exc:
        print(f"fdfa: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("fdfa: error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
