"""Re-run the mutation checks: source edits that the named tests must catch.

    python3 tools/mutants.py              # every entry
    python3 tools/mutants.py NAME [...]   # the named entries

Each entry copies the repository's ``src``, ``tests`` and ``pyproject.toml`` to
a temporary directory, replaces its old text, which must occur exactly once in
its file, by its new text, and runs ``python -m pytest -x -q`` on its test files
there.  The mutant is killed when the tests fail.  The exit status is 1 when a
must-kill entry survives; an equivalent entry, which no test can kill, is run
and reported with its reason and gates nothing.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str | None = None  # why no test can kill it; None if one must


MUTANTS = [
    Mutant("prefilter_bound_one_too_tight", "src/hopbound/arq.py",
           "bound = cap if dense else ((cap >> 33) + 1 << 33) - 1",
           "bound = cap if dense else ((cap >> 33) + 1 << 33) - 2", ("tests/test_arq.py",)),
    Mutant("one_pass_bound_2_80", "src/hopbound/arq.py",
           "for q, log_p, _ in hops) < 2 ** 53 / streams.size",
           "for q, log_p, _ in hops) < 2 ** 80 / streams.size", ("tests/test_arq.py",)),
    Mutant("candidate_cap_margin_2_-40", "src/hopbound/arq.py",
           "j_max = num * (2 ** 20 + 1) * 2 ** 33 // den",
           "j_max = num * (2 ** 40 + 1) * 2 ** 13 // den", ("tests/test_arq.py",)),
    Mutant("moment_merge_weight", "src/hopbound/arq.py",
           "delta * delta * (n_a * n_b / (n_a + n_b))",
           "delta * delta * (n_a * n_b / (n_a + n_b + 1))", ("tests/test_arq.py",)),
    Mutant("partial_row_offset_one_row_back", "src/hopbound/arq.py",
           "np.add(self.row[:rest], firsts[full], out=x[m - rest:])",
           "np.add(self.row[:rest], firsts[full - 1], out=x[m - rest:])", ("tests/test_arq.py",)),
    Mutant("greedy_exchange_stop_always", "src/hopbound/allocation.py",
           "return loss == math.inf or gains.index(gain) == losses.index(loss) or -gain <= loss",
           "return True", ("tests/test_allocation.py",)),
    Mutant("newton_ulps_64", "src/hopbound/exponents.py", "_ULPS = 4\n", "_ULPS = 64\n",
           ("tests/test_exponents.py",)),
    Mutant("newton_ulps_4096", "src/hopbound/exponents.py", "_ULPS = 4\n", "_ULPS = 4096\n",
           ("tests/test_exponents.py",)),
    Mutant("series_u_1e-2", "src/hopbound/channel.py", "_SERIES_U = 1e-4 ", "_SERIES_U = 1e-2 ",
           ("tests/test_channel.py", "tests/test_exponents.py")),
    Mutant("series_u_1e-6", "src/hopbound/channel.py", "_SERIES_U = 1e-4 ", "_SERIES_U = 1e-6 ",
           ("tests/test_channel.py", "tests/test_exponents.py")),
    Mutant("stochastic_atol_1e-6", "src/hopbound/channel.py", "_ATOL_STOCHASTIC = 1e-12",
           "_ATOL_STOCHASTIC = 1e-6", ("tests/test_channel.py", "tests/test_exponents.py")),
    Mutant("verify_grid_rc_tolerance_1e-2", "src/hopbound/cli.py",
           "abs(rc.exponent - g_rc) <= 1e-8", "abs(rc.exponent - g_rc) <= 1e-2",
           ("tests/test_cli.py",)),
    Mutant("verify_grid_sp_tolerance_1e-2", "src/hopbound/cli.py",
           "abs(sp.exponent - g_sp) <= 1e-8", "abs(sp.exponent - g_sp) <= 1e-2",
           ("tests/test_cli.py",)),
    Mutant("verify_ensemble_margin_300", "src/hopbound/cli.py", "bound + 3.0 * stderr",
           "bound + 300.0 * stderr", ("tests/test_cli.py",)),
    Mutant("ensemble_block_1000", "src/hopbound/oracle.py", "_ENSEMBLE_BLOCK = 65_536",
           "_ENSEMBLE_BLOCK = 1_000", ("tests/test_oracle.py",)),
    Mutant("certificate_slack_n", "src/hopbound/allocation.py",
           "slack = (8 * n + 16) * 2.0 ** -53 * q_total", "slack = n * 2.0 ** -53 * q_total",
           ("tests/test_allocation.py",),
           equivalent="a wrong split needs a share error above twice the slack, 2N 2**-53 Q;"
           " for N = 1 and 2 a rounding count bounds every error below that, and for N >= 3"
           " hill-climbing found at most 1.49 N 2**-53 Q"),
    Mutant("doubles_lets_overflow_escape", "src/hopbound/__init__.py",
           "    except OverflowError:\n", "    except ZeroDivisionError:\n",
           ("tests/test_domain.py",)),
    Mutant("is_integer_takes_bools", "src/hopbound/__init__.py",
           "numbers.Integral) and not isinstance(x, bool) and", "numbers.Integral) and",
           ("tests/test_domain.py",)),
    Mutant("logsumexp_without_fallback", "src/hopbound/system.py", "if bad.any():",
           "if False:", ("tests/test_system.py",)),
    Mutant("logsumexp_ties_counted_once", "src/hopbound/system.py",
           "m = np.sum(is_max, axis=-1, keepdims=True, dtype=float)", "m = np.ones_like(a_max)",
           ("tests/test_system.py",)),
    Mutant("forward_trace_extra_record", "src/hopbound/distproto.py",
           "if trace is not None and hop < len(rates):",
           "if trace is not None and hop <= len(rates):", ("tests/test_distproto.py",)),
    Mutant("broadcast_to_off_by_one", "src/hopbound/distproto.py", '"to": i + 1,', '"to": i,',
           ("tests/test_distproto.py",)),
    Mutant("is_number_takes_bools", "src/hopbound/scenario.py",
           "(int, float)) and not isinstance(value, bool)", "(int, float))",
           ("tests/test_cli.py",)),
]


def mutated(mutant: Mutant, root: str = ROOT) -> str:
    """The mutant's file with its edit made; ValueError unless the old text occurs once."""
    with open(os.path.join(root, mutant.file)) as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times"
                         f" in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> tuple[bool, float]:
    """(killed, seconds): the mutant's tests on a mutated copy of the tree."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        with open(os.path.join(tmp, mutant.file), "w") as fh:
            fh.write(mutated(mutant))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *mutant.tests], cwd=tmp, capture_output=True,
                              env=dict(os.environ, PYTHONPATH="src"), text=True)
        if proc.returncode not in (0, 1):  # not a test outcome: an error of the entry or tree
            raise RuntimeError(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}")
        return proc.returncode == 1, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no such entries: {', '.join(sorted(unknown))}")
    survivors = []
    for mutant in MUTANTS:
        if args.names and mutant.name not in args.names:
            continue
        killed, seconds = run(mutant)
        verdict = "killed" if killed else "survived"
        note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{mutant.name}: {verdict} in {seconds:.1f} s{note}", flush=True)
        if not killed and mutant.equivalent is None:
            survivors.append(mutant.name)
    if survivors:
        print(f"must-kill entries that survived: {', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
