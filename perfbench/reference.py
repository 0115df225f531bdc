"""Fixed reference work, timed next to every holtrans command the benchmark runs.

A fresh Python process that does the same kind of work as ``holtrans
translate`` and ``holtrans check`` (interpreter start-up, building and
hash-consing many small immutable terms, recursive traversals, dictionary
look-ups) but runs none of holtrans's code, so no change to ``src/`` can move
it.  On a shared machine the speed of every process drifts by tens of percent
over minutes; dividing a command's time by this process's time, measured
moments apart, cancels that drift.  Do not change this file: its time is the
unit of the benchmark's ``*_rel`` metrics.

Exits 0 after printing a checksum of the work done.
"""

import sys

ROUNDS = 4
TERMS = 5_000


def lcg(state: int) -> int:
    return (state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)


def build(rounds: int, terms: int) -> int:
    table: dict = {}  # hash-consing: term -> id
    nodes: list = []
    state = 12345
    checksum = 0
    for r in range(rounds):
        pool = [("var", i) for i in range(16)]
        for _ in range(terms):
            state = lcg(state)
            a = pool[(state >> 20) % len(pool)]
            b = pool[(state >> 40) % len(pool)]
            term = ("app", a, b) if state & 1 else ("lam", r, a, b)
            key = table.setdefault(term, len(nodes))
            if key == len(nodes):
                nodes.append(term)
            pool.append(term)
        sizes: dict = {}
        checksum ^= size(pool[-1], sizes) + len(sizes)
        checksum = (checksum * 31 + len(table)) % 1_000_000_007
    return checksum


def size(term: tuple, memo: dict) -> int:
    key = id(term)
    if key in memo:
        return memo[key]
    n = 1 if term[0] == "var" else 1 + size(term[-2], memo) + size(term[-1], memo)
    memo[key] = n
    return n


if __name__ == "__main__":
    sys.setrecursionlimit(100_000)
    print(build(ROUNDS, TERMS))
