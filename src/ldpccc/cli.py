"""Command-line front end.

Subcommands: ``construct`` (summarize a base matrix and its unwrapped
code), ``ber`` (seeded Monte-Carlo sweeps), ``arch`` (hardware reports and
schedules), ``lut-dump`` (write the pairwise combine table).  Every flag
can also be given in a config file of ``key=value`` lines via ``--config``;
explicit flags win.  A setting given neither way takes the default of the
config type it sets (``ExperimentConfig``, ``Quantizer``, ``ArchParams``).
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


def _apply_config(args: argparse.Namespace):
    """Fill args from the config file; flags on the command line win: one
    holds neither its parser default, None, nor a switch's, False."""
    if not getattr(args, "config", None):
        return
    values = _load_config_file(args.config)
    # only the subcommand's own options; not help, config or dispatch attributes
    actions = {a.dest: a for a in args.subparser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    for key, raw in values.items():
        if key not in actions:
            raise ValueError(f"unknown config key {key!r}")
        if (given := getattr(args, key)) is not None and given is not False:
            continue
        if not isinstance(actions[key].default, bool):
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


def _given(args, flags) -> dict:
    """The values of the ``flags`` given; their parser default is None, so
    the config type they set supplies the rest."""
    return {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}


# ``ber`` flags and the ExperimentConfig field each sets; --ebno sets ebno_grid
_BER_FIELDS = {"variant": "variant", "iters": "iterations", "bits": "quant_bits",
               "step": "quant_step", "clamp": "clamp", "seed": "seed",
               "min_errors": "min_error_events", "max_blocks": "max_blocks",
               "workers": "workers", "frame_blocks": "frame_blocks"}


def _cmd_ber(args) -> int:
    if args.timings and not args.out:
        raise ValueError("--timings needs --out: it only changes the CSV")
    fields = {_BER_FIELDS[flag]: value for flag, value in _given(args, _BER_FIELDS).items()}
    if args.ebno is not None:
        fields["ebno_grid"] = tuple(float(x) for x in args.ebno.replace(",", " ").split())
    cfg = ExperimentConfig(base=_resolve_base(args.base), **fields)
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


# custom-configuration flags of ``arch`` and the ArchParams field each sets;
# the parser leaves them None, so that one given beside a preset is seen
# even when it repeats its default
_ARCH_CUSTOM = {"z": "z", "nc": "block_rows", "nv": "block_cols", "g": "stages",
                "iters": "processors", "bits": "quant_bits", "clock": "clock_hz",
                "dpipe": "stage_delay", "codewords": "codewords"}
# the custom model's fields that ArchParams gives no default
_ARCH_SHAPE = {"z": 512, "block_rows": 4, "block_cols": 24, "stages": 512, "processors": 18}


def _cmd_arch(args) -> int:
    if args.preset and args.all_presets:  # both can come from a config file
        raise ValueError("--preset and --all-presets exclude each other")
    if args.all_presets and args.schedule_csv:
        raise ValueError(
            "--schedule-csv needs one configuration, not --all-presets"
        )
    custom = _given(args, _ARCH_CUSTOM)
    if custom and (args.preset or args.all_presets):
        flags = ", ".join(f"--{k}" for k in custom)
        raise ValueError(
            f"{flags} cannot be combined with "
            f"{'--preset' if args.preset else '--all-presets'} (custom model only)"
        )
    if args.preset:
        if args.preset not in arch_mod.PRESETS:
            raise ValueError(
                f"unknown preset {args.preset!r}; available: "
                + ", ".join(arch_mod.PRESETS)
            )
        params = arch_mod.PRESETS[args.preset]
        print(arch_mod.report_arch(params, args.preset))
    elif args.all_presets:
        print(arch_mod.report_presets())
        params = None
    else:
        params = arch_mod.ArchParams(**{**_ARCH_SHAPE, **{_ARCH_CUSTOM[flag]: value
                                                          for flag, value in custom.items()}})
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
    lut = build_pair_lut(Quantizer(**_given(args, ("bits", "step"))))
    text = dump_lut(lut)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _construct_options(p):
    p.add_argument("--base", required=True, help="base matrix file or bundled name")
    p.add_argument("--skip-girth", action="store_true",
                   help="skip the girth search (breadth-first from every "
                   "vertex at once, linear in the edge count per root)")


def _ber_options(p):
    p.description = (
        "A setting not given takes ExperimentConfig's default. --bits and --step "
        "apply to the qspa variant only, --clamp to the float variant only, "
        "--frame-blocks to stream runs only.")
    p.add_argument("--base", required=True)
    p.add_argument("--ebno", help="comma-separated Eb/N0 grid in dB, strictly increasing")
    for flag, field in _BER_FIELDS.items():  # each typed as its field's default
        p.add_argument("--" + flag.replace("_", "-"), type=type(getattr(ExperimentConfig, field)),
                       choices=(VARIANT_FLOAT, VARIANT_QSPA) if flag == "variant" else None)
    p.add_argument("--block-baseline", action="store_true",
                   help="decode the block code with flooding instead")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--timings", action="store_true",
                   help="record wall time in the CSV given by --out "
                   "(breaks byte determinism)")


def _arch_options(p):
    which = p.add_mutually_exclusive_group()
    which.add_argument("--preset", help="built-in configuration name (1-S..4-P)")
    which.add_argument("--all-presets", action="store_true",
                       help="print the full preset comparison table")
    for flag, field in _ARCH_CUSTOM.items():
        default = getattr(arch_mod.ArchParams, field, _ARCH_SHAPE.get(field))
        p.add_argument(f"--{flag}", type=type(default),
                       help=f"custom configuration (default {default:g}); "
                       "not with a preset")
    p.add_argument("--schedule-csv")
    p.add_argument("--trace-demo", action="store_true",
                   help="print the canonical RAM storage walkthrough")


def _lut_dump_options(p):
    p.add_argument("--bits", type=int)
    p.add_argument("--step", type=float)
    p.add_argument("--out")


# each subcommand's help, option builder and handler
_COMMANDS = {
    "construct": ("summarize a base matrix and its code", _construct_options, _cmd_construct),
    "ber": ("seeded Monte-Carlo BER sweep", _ber_options, _cmd_ber),
    "arch": ("hardware model report", _arch_options, _cmd_arch),
    "lut-dump": ("write the pairwise combine table", _lut_dump_options, _cmd_lut_dump),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser, with every subcommand registered; with ``command``,
    only that one gets its options, which is all its argv needs."""
    parser = argparse.ArgumentParser(
        prog="ldpccc",
        description="QC-LDPC convolutional codes: construction, stream "
        "decoding, BER sweeps, and hardware cost reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_options, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if command in (None, name):
            add_options(p)
            p.add_argument("--config")
            p.set_defaults(func=func, subparser=p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
