"""Output checks for one repetition of a workload.

A repetition's outputs fail when a score table differs byte for byte from
the ``naive_score`` oracle, when a Fagin ranking names other institutions
than ``naive_topk``, or when any output file differs from the reference:
the pinned hashes for the default seed, otherwise the run's first
repetition.
"""

from __future__ import annotations

import hashlib
import os


def file_hashes(directory: str) -> dict[str, str]:
    """sha256 of every file in a directory, by file name."""
    hashes = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as src:
            hashes[name] = hashlib.sha256(src.read()).hexdigest()
    return hashes


def ranking_ids(path: str) -> list[str]:
    with open(path, encoding="utf-8") as src:
        lines = src.read().splitlines()[1:]
    # Ranks and scores hold no commas; institution ids might.
    return [line.partition(",")[2].rpartition(",")[0] for line in lines]


def check_outputs(
    out_dir: str,
    oracle_dir: str,
    produced: dict[str, str],
    reference: dict[str, str] | None,
    reference_name: str = "the reference",
) -> dict[str, str]:
    """Return the reason each failing output file fails, by file name.

    ``produced`` holds the hashes of ``out_dir`` as ``file_hashes`` gives
    them. With ``reference`` None only the oracle checks run.
    """
    failures: dict[str, str] = {}
    oracle = file_hashes(oracle_dir)
    for name, digest in oracle.items():
        if name.startswith("scores_"):
            if name not in produced:
                failures[name] = "missing"
            elif produced[name] != digest:
                failures[name] = "differs from the naive_score oracle"
        elif name.startswith("fagin_"):
            venue = name[len("fagin_") : -len(".txt")]
            ranking = f"ranking_{venue}_fagin.csv"
            if ranking not in produced:
                failures[ranking] = "missing"
                continue
            with open(os.path.join(oracle_dir, name), encoding="utf-8") as src:
                expected = src.read().splitlines()
            if ranking_ids(os.path.join(out_dir, ranking)) != expected:
                failures[ranking] = "ids differ from naive_topk"
    if reference is not None:
        for name in sorted(set(reference) | set(produced)):
            if name not in produced:
                failures.setdefault(name, "missing")
            elif reference.get(name) != produced[name]:
                failures.setdefault(name, f"differs from {reference_name}")
    return failures
