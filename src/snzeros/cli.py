"""Command-line interface.

Every operation is exposed as a subcommand with script-friendly output:
plain values or CSV on stdout, diagnostics on stderr.  Exit status 0 on
success, 1 on usage errors or a closed stdout, 2 at a configured resource cap.

Partition arguments are comma-separated weakly decreasing parts
(e.g. 6,5,3,2,1,1); sweep ranges use a:b[:step] or comma lists.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .census import count_t_cores, count_type1, full_table_scan
from .errors import ResourceLimit, SnZerosError
from .mn import character, classify
from .montecarlo import (
    CSV_HEADER,
    MODES,
    EstimateRequest,
    format_row,
    request_metadata,
    sweep,
    write_csv,
)
from .partitions import Partition, decode, encode, parse_code
from .ptable import build_p_table, check_cap, size_cap
from .sampler import SampleStream, check_u64, random_partition


class _Parser(argparse.ArgumentParser):
    """argparse with usage-error exit status 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_partition(text: str) -> Partition:
    """Comma-separated parts; the empty string is the partition of 0."""
    if text.strip() == "":
        return Partition(())
    try:
        lam = Partition(tuple(int(x) for x in text.split(",")))
    except (ValueError, SnZerosError) as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}") from exc
    # a boundary word grows with the weight; outside the try, so over the cap exits 2
    check_cap("partition-table", (lam.n,))
    return lam


def parse_range(text: str) -> list[int]:
    """a:b[:step] (inclusive endpoints) or a comma-separated list."""
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) not in (2, 3):
            raise argparse.ArgumentTypeError(f"bad range {text!r}")
        a, b = int(pieces[0]), int(pieces[1])
        step = int(pieces[2]) if len(pieces) == 3 else 1
        if step < 1:
            raise argparse.ArgumentTypeError("range step must be >= 1")
        if a > b:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        cap = size_cap("partition-table")
        if (b - a) // step > cap:  # a longer range holds an n no command accepts
            raise argparse.ArgumentTypeError(f"range {text!r} has over {cap + 1} values")
        return list(range(a, b + 1, step))
    return [int(x) for x in text.split(",")]


def _auto_workers(value: str) -> int:
    if value == "auto":
        return os.cpu_count() or 1
    return int(value)


def _open_out(path: str):
    try:
        return open(path, "w")
    except OSError as exc:
        raise SnZerosError(f"cannot write --out: {exc}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="snzeros", description=__doc__)
    parser.add_argument("--version", action="version", version=f"snzeros {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("eval", help="exact character value")
    p.add_argument("--lambda", dest="lam", type=parse_partition, required=True,
                   metavar="PARTS", help="row shape, e.g. 3,1")
    p.add_argument("--mu", type=parse_partition, required=True,
                   metavar="PARTS", help="cycle type, e.g. 2,2")

    p = sub.add_parser("classify",
                       help="zero classification of one entry")
    p.add_argument("--lambda", dest="lam", type=parse_partition, required=True, metavar="PARTS")
    p.add_argument("--mu", type=parse_partition, required=True, metavar="PARTS")
    p.add_argument("--no-eval", action="store_true",
                   help="skip exact evaluation; zero is then reported as the type-2 lower bound")

    p = sub.add_parser("sample", help="uniform random partitions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--index-start", type=int, default=0,
                   help="first stream index (default 0)")

    p = sub.add_parser("sweep",
                       help="Monte Carlo density estimates over a range of n")
    p.add_argument("--n", type=parse_range, required=True, metavar="RANGE",
                   help="n values, e.g. 1:150 or 100:50000:100 or 10,20,50")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=MODES, required=True,
                   help="full-eval evaluates every entry; types-only runs the core tests alone")
    p.add_argument("--threads", type=_auto_workers, default=1, metavar="N|auto",
                   help="sample blocks per n, run on at most one process per CPU; "
                        "does not affect results")
    p.add_argument("--out", help="write CSV here (plus a .meta.json sidecar) instead of stdout")

    p = sub.add_parser("scan",
                       help="exact full-table zero census for small n, one CSV row per n")
    p.add_argument("--n", type=parse_range, required=True, metavar="RANGE",
                   help="n values, e.g. 4 or 3:16")
    p.add_argument("--ratio", action="store_true",
                   help="also print the type1/zero ratio to 3 decimals on stderr, one line per n")

    p = sub.add_parser("count-type1",
                       help="exact type-1 zero counts via generating functions, one line per n")
    p.add_argument("--n", type=parse_range, required=True, metavar="RANGE",
                   help="n values, e.g. 5000 or 82:300")

    p = sub.add_parser("cores",
                       help="number of partitions of n with no hook divisible by t")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("pn", help="exact partition count p(n)")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("encode", help="boundary word of a partition")
    p.add_argument("--lambda", dest="lam", type=parse_partition, required=True, metavar="PARTS")

    p = sub.add_parser("decode", help="partition of a boundary word")
    p.add_argument("--code", required=True, metavar="BITS",
                   help="walk-order bit string, optionally 0b-prefixed")

    return parser


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "eval":
        print(character(args.lam, args.mu))

    elif args.command == "classify":
        zc = classify(args.lam, args.mu, evaluate=not args.no_eval)
        print(
            f"zero={int(zc.is_zero)} type1={int(zc.is_type1)} "
            f"type2={int(zc.is_type2)} evaluated={int(zc.evaluated)}"
        )

    elif args.command == "sample":
        check_u64("--seed", args.seed)
        check_u64("--index-start", args.index_start)
        if args.count < 1:
            raise SnZerosError(f"--count must be at least 1, got {args.count}")
        check_u64("last stream index", args.index_start + args.count - 1)
        table = build_p_table(args.n)
        for i in range(args.index_start, args.index_start + args.count):
            lam = random_partition(args.n, SampleStream(args.seed, i), table)
            print(",".join(str(p) for p in lam.parts))

    elif args.command == "sweep":
        request = EstimateRequest(
            n_values=tuple(args.n),
            samples_per_n=args.samples,
            master_seed=args.seed,
            mode=args.mode,
            workers=args.threads,
        )
        if args.out:  # both files are opened before any sampling
            with _open_out(args.out) as fh, _open_out(args.out + ".meta.json") as meta:
                write_csv(sweep(request), fh)
                meta.write(request_metadata(request) + "\n")
        else:
            write_csv(sweep(request), sys.stdout)

    elif args.command == "scan":
        check_cap("scan", args.n)  # every n, before any output
        print(CSV_HEADER)
        for n in args.n:
            res = full_table_scan(n)
            counts = (res.zero_count, res.type1_count, res.type2_count)
            # exact rows leave master_seed, rng_name and elapsed_seconds empty
            print(format_row(n, res.total_entries, "exact", counts, (None, None, None)), flush=True)
            if args.ratio:
                print(f"n={n} type1/zero = {res.type1_over_zero()}", file=sys.stderr)

    elif args.command == "count-type1":
        check_cap("partition-table", args.n)  # count_type1 builds p(0..n); every n, before any output
        for n in args.n:
            print(count_type1(n), flush=True)

    elif args.command == "cores":
        print(count_t_cores(args.n, args.t))

    elif args.command == "pn":
        print(build_p_table(args.n)[args.n])

    elif args.command == "encode":
        print(bin(encode(args.lam)))

    elif args.command == "decode":
        print(decode(parse_code(args.code)))

    return 0


def main() -> None:
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter shutdown
    except ResourceLimit as exc:
        print(f"snzeros: resource limit: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except SnZerosError as exc:
        print(f"snzeros: error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    except BrokenPipeError:  # the reader closed stdout: point it at devnull so exit writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
    raise SystemExit(status)


if __name__ == "__main__":
    main()
