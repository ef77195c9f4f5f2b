"""Self-checks of the benchmark itself.

    python3 bench/selfcheck.py

For every workload:
  1. at tiny size, the gates pass on seed 0 and on another seed;
  2. two runs at one seed, the second in a fresh interpreter, give
     byte-identical outputs;
  3. a traced and an untraced run give byte-identical outputs;
  4. TRAJPHASE_THREADS=1 and =2 give byte-identical outputs;
  5. at full size, one traced call: the child spans of cli.main cover at
     least 90% of it, and the expected layer has the largest self time.
It prints the output SHA-256 of each run and exits 1 if any check failed.
"""

from __future__ import annotations

import os
import subprocess
import sys

import common

SEEDS = (0, 7)
MIN_COVERAGE = 0.9
DOMINANT = {
    "nojump_sweep": "jump.propagate_no_jump",
    "qsd_shift_pair": "qsd.chunk",
    "jump_piecewise": "jump.chunk",
    "hidden_shift_check": "lindblad.evolve_density",
}


def _digest(name: str, seed: int, tiny: bool, tracer=None, tag: str = "") -> tuple:
    import run

    run_dir = common.OUT / "selfcheck" / f"{name}-{seed}{tag}"
    workload, scenario, path = run.prepare(name, seed, tiny, run_dir)
    call = run.call_once(workload, scenario, path, seed, tracer)
    return call.digest, [op for op in call.ops if not op.ok]


def main() -> int:
    common.pin_threads()
    if sys.argv[1:2] == ["--digest"]:
        common.load_trajphase()
        print(_digest(sys.argv[2], int(sys.argv[3]), True, tag="-child")[0])
        return 0

    common.load_trajphase()
    import tracing

    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for name in DOMINANT:
        for seed in SEEDS:
            digest, bad = _digest(name, seed, True)
            print(f"     {name} seed {seed} tiny sha256 {digest}")
            expect(digest is not None and not bad, f"{name} seed {seed}: gates pass {bad}")

        seed = SEEDS[1]
        digest, _ = _digest(name, seed, True)
        child = subprocess.run(
            [sys.executable, __file__, "--digest", name, str(seed)],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        expect(child == digest, f"{name}: a second process gives the same output")

        traced, _ = _digest(name, seed, True, tracing.Tracer(), "-traced")
        expect(traced == digest, f"{name}: traced output equals untraced output")

        os.environ["TRAJPHASE_THREADS"] = "2"
        try:
            two, _ = _digest(name, seed, True, tag="-threads2")
        finally:
            common.pin_threads()
        expect(two == digest, f"{name}: TRAJPHASE_THREADS=2 output equals =1 output")

        tracer = tracing.Tracer()
        full, _ = _digest(name, seed, False, tracer, "-full")
        print(f"     {name} seed {seed} full sha256 {full}")
        share = tracing.coverage(tracer.spans)
        expect(share >= MIN_COVERAGE, f"{name}: spans cover {share:.3f} of cli.main")
        top = tracing.dominant(tracer.spans)
        expect(top == DOMINANT[name], f"{name}: largest self time in {top}")

    print(f"{len(problems)} failed checks")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
