"""Exhaustive search over homogeneous rotation-symmetric functions.

Candidates are the nonempty subsets of the degree-d orbit
representatives, walked in Gray-code order in numpy blocks, each held as
one bit per input rotation orbit.  A W(0) weight filter and a sieve of
exact W(c) values at a few inputs leave very few candidates for the full
Walsh transform, and every hit is re-tested from scratch before it is
returned.  `stats` reports how many candidates each stage kept.
"""

import time

from rotbent import SearchTask, exhaustive_search, format_sanf, search_crosscheck


def run(n, d):
    start = time.perf_counter()
    res = exhaustive_search(SearchTask(n, d))
    elapsed = time.perf_counter() - start
    print(f"n={n} d={d}: {len(res.bent)} bent / "
          f"{res.candidates} tested in {elapsed:.3f}s "
          f"({res.stats['weight_survivors']} past W(0), "
          f"{res.stats['sieve_survivors']} past the sieve)")
    for sanf in res.bent:
        print(f"  {format_sanf(sanf)}")


def main():
    run(8, 2)
    run(8, 3)
    run(10, 3)
    run(10, 4)

    print()
    # the layer searched last was n=10 d=4, so shard 0 builds the n=8 d=3
    # orbit tables and shards 1-3 reuse them
    print("sharded run over four slices of n=8 d=3:")
    total = 0
    for i in range(4):
        part = exhaustive_search(SearchTask(8, 3, (i, 4)))
        print(f"  shard {i}/4: {len(part.bent)} bent / {part.candidates} tested, "
              f"tables_s {part.stats['tables_s'] * 1e3:.3f} ms")
        total += part.candidates
    print(f"  union covers all {total} candidates")

    print()
    print("crosscheck harness (every route must agree):")
    print(" ", search_crosscheck(6, 2))
    print(" ", search_crosscheck(8, 3))


if __name__ == "__main__":
    main()
