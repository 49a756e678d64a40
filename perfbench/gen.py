"""Seeded input circuits and an evaluator of their own for expected verdicts.

Circuits are plain node lists in the package's circuit format
(("IN", i), ("AND", a, b), ("OR", a, b), ("NOT", a)); the workloads hand
them to fsrkit as `Circuit` objects.  Whether a circuit is satisfiable is
decided here, by a bit-parallel scan that shares no code with fsrkit, so a
wrong answer from the package cannot also change the expected verdict.
"""

from __future__ import annotations

import random


def rng_for(workload: str, seed: int) -> random.Random:
    """One generator per (workload, seed); string seeds hash with SHA-512,
    so the inputs do not depend on PYTHONHASHSEED."""
    return random.Random(f"{workload}:{seed}")


def input_lanes(r: int) -> list:
    """Lane i has bit j set iff bit i of j is set, for j < 2^r.

    Built from a repeated byte pattern (little-endian), linear in 2^r.
    """
    nbytes = max(1, (1 << r) // 8)
    full = (1 << (1 << r)) - 1
    lanes = []
    for i in range(r):
        if i < 3:
            unit = bytes([(0xAA, 0xCC, 0xF0)[i]])
        else:
            half = 1 << (i - 3)
            unit = bytes(half) + b"\xff" * half
        lanes.append(int.from_bytes(unit * (nbytes // len(unit)), "little")
                     & full)
    return lanes


def truth_mask(r: int, nodes: list, out: int) -> int:
    """Bit j of the result is the circuit's output on input vector j."""
    full = (1 << (1 << r)) - 1
    lanes = input_lanes(r)
    vals = []
    for node in nodes:
        op = node[0]
        if op == "IN":
            vals.append(lanes[node[1]])
        elif op == "AND":
            vals.append(vals[node[1]] & vals[node[2]])
        elif op == "OR":
            vals.append(vals[node[1]] | vals[node[2]])
        else:
            vals.append(vals[node[1]] ^ full)
    return vals[out]


def _literal(nodes: list, i: int, positive: bool) -> int:
    if positive:
        return i
    nodes.append(("NOT", i))
    return len(nodes) - 1


def _and_all(nodes: list, wires: list) -> int:
    acc = wires[0]
    for w in wires[1:]:
        nodes.append(("AND", acc, w))
        acc = len(nodes) - 1
    return acc


def _minterm(nodes: list, r: int, v: int) -> int:
    return _and_all(nodes,
                    [_literal(nodes, i, (v >> i) & 1) for i in range(r)])


def single_witness(r: int, v: int) -> tuple:
    """One minterm: input vector v is the only satisfying input.

    With a single witness the built indecomposability register has few,
    long cycles, and the guided decomposition search exhausts its
    candidates instead of being cut short by the subset-sum filter.
    """
    nodes = [("IN", i) for i in range(r)]
    return nodes, _minterm(nodes, r, v)


def random_dag(rng: random.Random, r: int, gates: int) -> tuple:
    """A random AND/OR/NOT DAG whose operands lean towards recent gates,
    so the output depends on many inputs."""
    nodes = [("IN", i) for i in range(r)]
    for k in range(r, r + gates):
        a, b = (max(rng.randrange(k), rng.randrange(k)) for _ in range(2))
        op = rng.choice(("AND", "OR", "OR", "AND", "NOT"))
        nodes.append(("NOT", a) if op == "NOT" else (op, a, b))
    return nodes, len(nodes) - 1


def contradiction(rng: random.Random, r: int, gates: int) -> tuple:
    """g AND NOT g for a random DAG g: unsatisfiable by structure."""
    nodes, g = random_dag(rng, r, gates)
    nodes.append(("NOT", g))
    nodes.append(("AND", g, len(nodes) - 1))
    return nodes, len(nodes) - 1

