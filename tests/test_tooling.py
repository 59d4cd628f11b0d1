"""The bindings that the benchmark's own files rely on, checked at tier 1.

perfbench runs outside the test suite, so a change under ``src/`` that
broke its imports, or a binding its self-test patches, would otherwise show
only once the benchmark runs.
"""

import ast
import hashlib
import importlib
import json
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_modules_import_and_find_their_bindings(monkeypatch):
    for sub in ("tests", "perfbench", "src"):
        monkeypatch.syspath_prepend(str(ROOT / sub))
    importlib.import_module("workloads")
    importlib.import_module("reference_decoder")
    import ldpccc.construction
    import ldpccc.decoder

    # perfbench/selftest.py swaps the float check update, and checks that
    # its tracer patches the syndrome check where the decoder looks it up
    assert callable(ldpccc.decoder._cnp_float_rows)
    assert ldpccc.decoder.syndrome_check is ldpccc.construction.syndrome_check


def stepped_soft(d, code, cfg, blocks):
    """Soft values of the blocks a StreamDecoder decides while stepped."""
    dec = d.StreamDecoder(code, cfg)
    return [out[2] for out in map(dec.step, blocks) if out is not None]


def test_float_kernel_mutation_reaches_the_frame_engine(monkeypatch):
    # perfbench/selftest.py swaps the float check update for one 5% off and
    # expects the float oracle to notice: the engine must look the kernel
    # up where that swap puts it, at call time, for frames and for steps
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import numpy as np

    import ldpccc.decoder as d
    from ldpccc.construction import demo_base, split_and_unwrap

    code = split_and_unwrap(demo_base("rate56_4x24_z31"))
    llrs = np.random.default_rng(3).normal(1.0, 1.5, 36 * code.block_len) * 2.0
    cfg = d.DecoderConfig(8)

    def decode():
        return (d.decode_stream(d.StreamDecoder(code, cfg), llrs[:4 * code.block_len]).soft,
                np.concatenate(stepped_soft(d, code, cfg, llrs.reshape(-1, code.block_len))))

    good = decode()
    original = d._cnp_float_rows
    monkeypatch.setattr(d, "_cnp_float_rows", lambda v, clamp: 0.95 * original(v, clamp))
    for bad, want in zip(decode(), good):
        assert not np.array_equal(bad, want)


def assert_lut_mutation_reaches_the_engine(monkeypatch, mutate):
    """The soft output of rate-5/6 4-bit frames and of steps both change
    once ``mutate(lut)`` has patched the shared lut's tables."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import numpy as np

    import ldpccc.decoder as d
    from ldpccc.construction import demo_base, split_and_unwrap

    code = split_and_unwrap(demo_base("rate56_4x24_z31"))
    llrs = np.random.default_rng(3).normal(1.0, 1.5, 36 * code.block_len) * 2.0
    cfg = d.DecoderConfig(8, d.VARIANT_QSPA)
    codes = cfg.quantizer.quantize(llrs.reshape(-1, code.block_len))

    def decode():
        return (d.decode_stream(d.StreamDecoder(code, cfg), llrs[:4 * code.block_len]).soft,
                np.concatenate(stepped_soft(d, code, cfg, codes)))

    good = decode()
    mutate(d.StreamDecoder(code, cfg).lut)
    for bad, want in zip(decode(), good):
        assert not np.array_equal(bad, want)


def rebuild_from(monkeypatch, *names):
    """Makes each named table of every PairLut derived again on each read,
    so that it follows a patched table it is derived from; the values
    cached on the lut before the patch return with it."""
    from ldpccc.quantization import PairLut

    for name in names:
        monkeypatch.setattr(PairLut, name, property(getattr(PairLut, name).func))


def test_value_table_mutation_reaches_the_frame_engine(monkeypatch):
    # the engine folds quantized messages through forms of the lut's value
    # table, built from it: one changed entry, the combine of two values of
    # +2 steps, changes the soft output of frames and of steps
    def mutate(lut):
        from ldpccc.quantization import PairLut

        m = lut.quantizer.max_magnitude_int
        table = lut.value_table.copy()
        table[m + 2, m + 2] += 1
        monkeypatch.setattr(PairLut, "value_table", property(lambda self: table))
        rebuild_from(monkeypatch, "packed_table", "fold_tables")
        # the low byte of a packed entry is the first check's combine
        packed = lut.fold_tables.table.reshape(16, 16, 16, 16)
        assert packed[0, 0, m + 2, m + 2] & 0xFF == table[m + 2, m + 2]

    assert_lut_mutation_reaches_the_engine(monkeypatch, mutate)


def test_packed_table_mutation_reaches_the_frame_engine(monkeypatch):
    # a 4-bit engine folds two checks per lookup through the packed table:
    # one changed entry, where each of the two checks combines 0 with +2
    # steps, changes the soft output of frames and of steps
    def mutate(lut):
        from ldpccc.quantization import PairLut

        m = lut.quantizer.max_magnitude_int
        table = lut.packed_table.copy()
        table[m, m + 2, m, m + 2] += 1  # [x_hi, y_hi, x_lo, y_lo]: the low byte
        monkeypatch.setattr(PairLut, "packed_table", property(lambda self: table))
        rebuild_from(monkeypatch, "fold_tables")

    assert_lut_mutation_reaches_the_engine(monkeypatch, mutate)


def test_channel_mutation_reaches_the_harness(monkeypatch):
    # the harness draws each batch's channel LLRs through one frame_llrs
    # call, looked up where it calls it: zero LLRs in its place change what
    # a block baseline reports
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import numpy as np

    from ldpccc import harness
    from ldpccc.construction import demo_base

    cfg = harness.ExperimentConfig(base=demo_base("toy_2x4_z8"), iterations=4,
                                   ebno_grid=(1.0,), min_error_events=10**9, max_blocks=16)

    def counts():
        return [(p.blocks_sent, p.bit_errors, p.block_errors)
                for p in harness.run_block_baseline(cfg)]

    good = counts()
    assert good[0][1] > 0
    monkeypatch.setattr(harness, "frame_llrs", lambda master, point, lo, hi, *rest:
                        np.zeros((hi - lo, rest[-1])))
    assert counts() != good


def test_benchmark_jobs_pass_their_checks_at_the_golden_seed(monkeypatch, tmp_path):
    # one job of every workload, checked as the benchmark checks it: a
    # change to the harness or to how the decoders are called fails here
    for sub in ("perfbench", "src"):
        monkeypatch.syspath_prepend(str(ROOT / sub))
    workloads = importlib.import_module("workloads")
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    for name, w in workloads.WORKLOADS.items():
        work_dir = tmp_path / name
        work_dir.mkdir()
        out = w.collect(w.job(workloads.GOLDEN_SEED, work_dir))
        assert w.check(out, workloads.GOLDEN_SEED) == [], name
        assert workloads.golden_problems(name, golden, out, workloads.GOLDEN_SEED, job=0) == []


def test_the_timed_schedule_csv_path_skips_the_per_access_expansions(monkeypatch, tmp_path,
                                                                    capsys):
    # hw-model times this command: its CSV is written from the schedule's
    # columns, never through the StageEvent objects or the row tuples
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from ldpccc.arch import Schedule
    from ldpccc.cli import main

    def expanded(*_args):
        raise AssertionError("the CLI expanded the schedule per access")

    monkeypatch.setattr(Schedule, "events", property(expanded))
    monkeypatch.setattr(Schedule, "csv_rows", expanded)
    path = tmp_path / "schedule.csv"
    assert main(["arch", "--preset", "1-S", "--schedule-csv", str(path)]) == 0
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["hw-model"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == golden["csv_sha256"]


def readme_cli_lines():
    """Each ``ldpccc ...`` command of the README's "Command line" block, its
    continuation lines joined, as an argument list without the comment."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("ldpccc ")]


def test_readme_cli_examples_parse_and_run(monkeypatch, tmp_path, capsys):
    # every example parses; every one that is not a BER run also runs, in a
    # scratch directory for the files it writes
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from ldpccc.cli import build_parser, main

    lines = readme_cli_lines()
    assert [argv[1] for argv in lines] == ["construct", "ber", "ber", "ber",
                                           "arch", "arch", "arch", "arch", "lut-dump"]
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        build_parser().parse_args(argv[1:])
        if argv[1] != "ber":
            assert main(argv[1:]) == 0, argv
    assert (tmp_path / "sched.csv").exists() and (tmp_path / "lut.txt").exists()


def kind_checks(source: str) -> list[str]:
    """Each place in ``source`` that checks what kind of number a value is:
    an ``isinstance(..., bool)``, a ``numbers`` import or attribute, or a
    numpy scalar class such as ``np.integer``, as ``line: what``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            kinds = node.args[1]
            if any(getattr(k, "id", None) == "bool"
                   for k in (kinds.elts if isinstance(kinds, ast.Tuple) else [kinds])):
                found.append(f"{node.lineno}: isinstance(..., bool)")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                node.value.id == "numbers" or node.value.id in ("np", "numpy")
                and node.attr in ("integer", "signedinteger", "unsignedinteger",
                                  "floating", "number")):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and "numbers" in (
                [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]):
            found.append(f"{node.lineno}: import numbers")
    return found


def test_only_the_settings_helpers_check_the_kind_of_a_number():
    # the rules "an integer, not a bool" and "a real, not a bool" live in
    # ldpccc/_settings.py alone: the copies that every config type once
    # held had drifted apart, and admitted numpy numbers that later broke
    assert set(kind_checks("import numbers\nif isinstance(v, bool) or not isinstance(\n"
                           "        v, (int, np.integer)) or not isinstance(v, numbers.Real):\n"
                           "    pass\n")) == {"1: import numbers", "2: isinstance(..., bool)",
                                             "3: np.integer", "3: numbers.Real"}
    found = {path.name: kind_checks(path.read_text())
             for path in sorted((ROOT / "src" / "ldpccc").glob("*.py"))}
    assert found.pop("_settings.py") != []
    assert {name: lines for name, lines in found.items() if lines} == {}
