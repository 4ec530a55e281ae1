"""make bench-ab BASE=<rev> WORKLOAD=<name>|all [PAIRS=10]

One ``bench/spread.py`` run (``bench/run.py --seed i --seconds 10 --trace
0``) per seed 1..PAIRS from BASE, unpacked into a temporary directory,
and from this tree, alternating which side goes first.  Prints each
side's median and quartiles and the change's wins per end-to-end metric,
checks ``model.*`` and digests pair by pair, and writes both sides as
sets for ``bench/compare.py``.  ``WORKLOAD=all`` does that for the four
workloads in turn, then prints ``bench/compare.py``'s verdict rows for
all of them from one pair of sets.
"""
import json
import os
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, "bench")
from metrics import END_TO_END, WORKLOADS  # noqa: E402


def run_pairs(base_tree: str, workload: str, pairs: int) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    one = os.path.join(base_tree, "one-run.json")
    for seed in range(1, pairs + 1):
        order = [("base", base_tree), ("change", os.getcwd())]
        for side, tree in order if seed % 2 else order[::-1]:
            subprocess.run(
                [sys.executable, f"{tree}/bench/spread.py", "--runs", "1",
                 "--first-seed", str(seed), "--workload", workload,
                 "--out", one],
                check=True, stdout=subprocess.DEVNULL,
            )
            with open(one) as handle:
                runs[side] += json.load(handle)[workload]["runs"]
            print(f"seed {seed} {side:6s}", runs[side][-1]["metrics"], flush=True)
    return runs


def report(base: str, workload: str, pairs: int, runs: dict[str, list[dict]]) -> bool:
    print(f"# {workload}: {pairs} interleaved pairs against {base}")
    for name, unit, better, _ in END_TO_END:
        a, b = ([r["metrics"][name] for r in side] for side in runs.values())
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        q = [statistics.quantiles(v, n=4) if pairs > 1 else v * 3 for v in (a, b)]
        print(f"{name:18s}"
              f" base {q[0][1]:9.3f} [{q[0][0]:.3f}, {q[0][2]:.3f}]"
              f"  change {q[1][1]:9.3f} [{q[1][0]:.3f}, {q[1][2]:.3f}] {unit:4s}"
              f" change wins {wins}/{pairs}")
    same = sum(x["digests"] == y["digests"] and x["model"] == y["model"]
               for x, y in zip(*runs.values()))
    print(f"model.* and digests equal on {same}/{pairs} pairs")
    return same == pairs


def write_sets(label: str, sets: dict[str, dict[str, list[dict]]]) -> list[str]:
    """Both sides of ``{workload: runs}`` as bench/compare.py sets."""
    os.makedirs("bench/out", exist_ok=True)
    paths = []
    for side in ("base", "change"):
        paths.append(f"bench/out/ab-{label}-{side}.json")
        with open(paths[-1], "w") as handle:
            json.dump({workload: {"runs": runs[side]}
                       for workload, runs in sets.items()}, handle, indent=1)
    return paths


def main(base: str, workload: str, pairs: int) -> int:
    names = [name for name, _ in WORKLOADS] if workload == "all" else [workload]
    sets: dict[str, dict[str, list[dict]]] = {}
    clean = True
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", base], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        for name in names:
            sets[name] = run_pairs(tmp, name, pairs)
            write_sets(name, {name: sets[name]})
            clean &= report(base, name, pairs, sets[name])
    if workload == "all":
        compared = subprocess.run(
            [sys.executable, "bench/compare.py", *write_sets("all", sets)]
        )
        clean &= compared.returncode == 0
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], int(sys.argv[3])))
