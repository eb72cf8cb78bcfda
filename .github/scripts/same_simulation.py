"""Exits non-zero unless two syncron-cli JSON exports report the same simulation.

    python3 .github/scripts/same_simulation.py <a> <b>

<a> and <b> are two export files, or two directories whose *.json files are
paired by name. Only the host-side `perf` table and the `sim_threads` config
echo may differ: the contract RunReport::divergence_from enforces in-repo.
"""
import json
import pathlib
import sys


def normalize(doc):
    for entry in doc:
        entry["report"].pop("perf", None)
        entry["config"].pop("sim_threads", None)
    return doc


def pairs(a, b):
    if not a.is_dir():
        return [(a, b)]
    files = sorted(a.glob("*.json"))
    assert files, f"no exports in {a}"
    return [(f, b / f.name) for f in files]


def main(a, b):
    checked = pairs(pathlib.Path(a), pathlib.Path(b))
    failures = [
        f"{x} and {y} report different simulations"
        for x, y in checked
        if normalize(json.load(open(x))) != normalize(json.load(open(y)))
    ]
    if failures:
        sys.exit("\n".join(failures))
    print(f"{len(checked)} export pair(s) bit-identical modulo perf")


if __name__ == "__main__":
    main(*sys.argv[1:])
