"""Command-line front end.

Subcommands: ``construct`` (summarize a base matrix and its unwrapped
code), ``ber`` (seeded Monte-Carlo sweeps), ``arch`` (hardware reports and
schedules), ``lut-dump`` (write the pairwise combine table).  Every flag
can also be given in a config file of ``key=value`` lines via ``--config``;
explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import arch as arch_mod
from .construction import (
    BaseMatrix,
    ConstructionError,
    demo_base,
    demo_base_names,
    girth,
    split_and_unwrap,
    window_matrix,
)
from .decoder import VARIANT_FLOAT, VARIANT_QSPA
from .harness import (
    ExperimentConfig,
    run_ber,
    run_block_baseline,
    write_csv,
)
from .quantization import Quantizer, build_pair_lut, dump_lut


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config lines must be key=value, got {line!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser, argv):
    """Fill args from the config file; flags on the command line win."""
    if not getattr(args, "config", None):
        return
    values = _load_config_file(args.config)
    # only the subcommand's own options; not help, config or dispatch attributes
    actions = {a.dest: a for a in args.subparser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    switches = {dest for dest, a in actions.items() if isinstance(a.default, bool)}
    # parsed again without defaults, the args hold only the flags given
    for action in actions.values():
        action.default = argparse.SUPPRESS
    given = vars(parser.parse_args(argv))
    for key, raw in values.items():
        if key not in actions:
            raise ValueError(f"unknown config key {key!r}")
        if key in given:
            continue
        if key not in switches:
            setattr(args, key, _config_value(key, raw, actions[key]))
        elif raw.lower() in _BOOLEANS:
            setattr(args, key, _BOOLEANS[raw.lower()])
        else:
            raise ValueError(f"config key {key!r} needs a boolean "
                             f"(1/true/yes/on or 0/false/no/off), got {raw!r}")


def _config_value(key: str, raw: str, action: argparse.Action):
    """``raw`` converted by the option's type and checked against its choices,
    as argparse would on the command line; an error names the key."""
    convert = action.type or str
    try:
        value = convert(raw)
    except (TypeError, ValueError):
        raise ValueError(f"config key {key!r}: invalid {convert.__name__} value {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r}: invalid choice {raw!r} (choose from "
                         f"{', '.join(map(str, action.choices))})")
    return value


def _resolve_base(name_or_path: str) -> BaseMatrix:
    path = Path(name_or_path)
    if path.is_file():
        return BaseMatrix.load(path)
    if name_or_path in demo_base_names():
        return demo_base(name_or_path)
    raise ConstructionError(
        f"{name_or_path!r} is neither a file nor a bundled base "
        f"(bundled: {', '.join(demo_base_names())})"
    )


def _parse_grid(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.replace(",", " ").split())


def _cmd_construct(args) -> int:
    base = _resolve_base(args.base)
    code = split_and_unwrap(base)
    print(f"base matrix: {base.block_rows} x {base.block_cols}, z = {base.z}")
    print(f"block code:  {base.z * base.block_rows} x {base.z * base.block_cols}")
    print(
        f"conv code:   period {code.period}, memory {code.memory}, "
        f"block length {code.block_len}, info bits/block {code.info_len}, "
        f"rate {code.info_len}/{code.block_len} = {code.rate:.4f}"
    )
    if not args.skip_girth:
        g_block = girth(code.h_block)
        win = window_matrix(code, 0, 3 * code.period)
        g_conv = girth(win)
        print(f"girth:       block {g_block}, windowed conv ({3 * code.period} "
              f"block rows) {g_conv}")
    return 0


def _cmd_ber(args) -> int:
    cfg = ExperimentConfig(
        base=_resolve_base(args.base),
        variant=args.variant,
        iterations=args.iters,
        ebno_grid=_parse_grid(args.ebno),
        quant_bits=args.bits,
        quant_step=args.step,
        clamp=args.clamp,
        min_error_events=args.min_errors,
        max_blocks=args.max_blocks,
        seed=args.seed,
        workers=args.workers,
        frame_blocks=args.frame_blocks,
    )
    points = run_block_baseline(cfg) if args.block_baseline else run_ber(cfg)
    for p in points:
        flag = " (truncated)" if p.truncated else ""
        print(
            f"Eb/N0 {p.ebno_db:5.2f} dB  blocks {p.blocks_sent:8d}  "
            f"ber {p.ber:.3e}  bler {p.bler:.3e}{flag}"
        )
    if args.out:
        write_csv(points, args.out, timings=args.timings)
        print(f"wrote {args.out}")
    return 0


class ArchPresetError(ValueError):
    pass


# custom-configuration flags of ``arch``: the ArchParams field each sets and
# its default; the parser leaves them None, so that one given beside a
# preset is seen even when it repeats its default
_ARCH_CUSTOM = {"z": ("z", 512), "nc": ("block_rows", 4), "nv": ("block_cols", 24),
                "g": ("stages", 512), "iters": ("processors", 18),
                "bits": ("quant_bits", 4), "clock": ("clock_hz", 1.0e8),
                "dpipe": ("stage_delay", 0), "codewords": ("codewords", 1)}


def _cmd_arch(args) -> int:
    if args.preset and args.all_presets:  # both can come from a config file
        raise ArchPresetError("--preset and --all-presets exclude each other")
    if args.all_presets and args.schedule_csv:
        raise ArchPresetError(
            "--schedule-csv needs one configuration, not --all-presets"
        )
    custom = {k: getattr(args, k) for k in _ARCH_CUSTOM if getattr(args, k) is not None}
    if custom and (args.preset or args.all_presets):
        flags = ", ".join(f"--{k}" for k in custom)
        raise ArchPresetError(
            f"{flags} cannot be combined with "
            f"{'--preset' if args.preset else '--all-presets'} (custom model only)"
        )
    if args.preset:
        if args.preset not in arch_mod.PRESETS:
            raise ArchPresetError(
                f"unknown preset {args.preset!r}; available: "
                + ", ".join(arch_mod.PRESETS)
            )
        params = arch_mod.PRESETS[args.preset]
        print(arch_mod.report_arch(params, args.preset))
    elif args.all_presets:
        print(arch_mod.report_presets())
        params = None
    else:
        params = arch_mod.ArchParams(**{field: custom.get(flag, default)
                                        for flag, (field, default) in _ARCH_CUSTOM.items()})
        print(arch_mod.report_arch(params))
    if args.trace_demo:
        print()
        print(arch_mod.ram_trace_example().render())
    if args.schedule_csv:
        with open(args.schedule_csv, "w") as out:
            arch_mod.schedule_multi(params).write_csv(out)
        print(f"wrote {args.schedule_csv}")
    return 0


def _cmd_lut_dump(args) -> int:
    lut = build_pair_lut(Quantizer(bits=args.bits, step=args.step))
    text = dump_lut(lut)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpccc",
        description="QC-LDPC convolutional codes: construction, stream "
        "decoding, BER sweeps, and hardware cost reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="summarize a base matrix and its code")
    p.add_argument("--base", required=True, help="base matrix file or bundled name")
    p.add_argument("--skip-girth", action="store_true",
                   help="skip the girth search (breadth-first from every "
                   "vertex at once, linear in the edge count per root)")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_construct, subparser=p)

    p = sub.add_parser("ber", help="seeded Monte-Carlo BER sweep")
    p.add_argument("--base", required=True)
    p.add_argument("--variant", choices=(VARIANT_FLOAT, VARIANT_QSPA),
                   default=VARIANT_FLOAT)
    p.add_argument("--iters", type=int, default=8)
    p.add_argument("--ebno", default="2.0,3.0,4.0",
                   help="comma-separated Eb/N0 grid in dB, strictly increasing")
    p.add_argument("--bits", type=int, default=4)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--clamp", type=float, default=25.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--min-errors", type=int, default=100)
    p.add_argument("--max-blocks", type=int, default=200_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--frame-blocks", type=int, default=64)
    p.add_argument("--block-baseline", action="store_true",
                   help="decode the block code with flooding instead")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--timings", action="store_true",
                   help="record wall time in the CSV (breaks byte determinism)")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_ber, subparser=p)

    p = sub.add_parser("arch", help="hardware model report")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--preset", default=None,
                       help="built-in configuration name (1-S..4-P)")
    which.add_argument("--all-presets", action="store_true",
                       help="print the full preset comparison table")
    for flag, (_, default) in _ARCH_CUSTOM.items():
        p.add_argument(f"--{flag}", type=type(default), default=None,
                       help=f"custom configuration (default {default:g}); "
                       "not with a preset")
    p.add_argument("--schedule-csv", default=None)
    p.add_argument("--trace-demo", action="store_true",
                   help="print the canonical RAM storage walkthrough")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_arch, subparser=p)

    p = sub.add_parser("lut-dump", help="write the pairwise combine table")
    p.add_argument("--bits", type=int, default=4)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_lut_dump, subparser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser, argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
