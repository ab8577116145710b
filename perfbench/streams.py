"""Record streams for the replay workload, made with the benchmark's own
numpy code from a seed, so that the inputs stay the same however the
program changes.

Each stream follows one adaptive tomography run on a Haar-random pure
qubit: the six MUB projectors first, then a geometrically growing budget
of expected emitted copies per step, each step measuring the plan that one
of the program's protocols would choose for a guess near the true state.
The guess approaches the true state as 1/sqrt(N); the benchmark does not
estimate anything itself.

Styles, by the protocol whose plans they imitate:
  random    a Haar-random basis per step, one exposure group;
  eigen     the MUB frame aligned with the guess, three groups;
  rankp-nc  the six MUB projectors conjugated by rho_g^-1/2, normalized to
            unit trace, the trace kept as exposure weight, singleton groups;
  rankp-b   each of those completed by its orthogonal projector, one group
            per pair;
  rankp-m   those scaled by the largest eigenvalue of their sum plus the
            residual eigenprojector, singleton groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import bloch, from_bloch, tangent_basis

STYLES = ("random", "eigen", "rankp-nc", "rankp-b", "rankp-m")
INTENSITY = 1000.0
INITIAL_BUDGET = 100.0
GROWTH = 1.25
DELTA = 1e-4        # guess regularization, as the program's DEFAULT_DELTA
INERT = 1e-12       # drop elements with less weight, as the program does

_AXES = np.eye(3)


@dataclass
class Stream:
    """Exposure groups of (Bloch vector m, time, counts) records."""

    style: str
    groups: list[list[tuple[np.ndarray, float, int]]]

    def n_emit(self) -> np.ndarray:
        """Cumulative expected emitted copies after each group."""
        out, running = [], 0.0
        for g in self.groups:
            running += INTENSITY * max(t for _, t, _ in g)
            out.append(running)
        return np.array(out)

    def prefix(self, idx: int):
        """Stacked (m, times, counts) of groups 0..idx."""
        recs = [r for g in self.groups[:idx + 1] for r in g]
        return (np.array([m for m, _, _ in recs]), np.array([t for _, t, _ in recs]),
                np.array([n for _, _, n in recs]))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _transformed(guess: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """The six MUB projectors conjugated by rho_g^-1/2 / sqrt(2)."""
    w, v = np.linalg.eigh(from_bloch((1.0 - DELTA) * guess))
    lop = (v * w ** -0.5) @ v.conj().T / np.sqrt(2.0)
    out = []
    for axis in _AXES:
        for sign in (1.0, -1.0):
            e = lop @ from_bloch(sign * axis) @ lop
            out.append((_unit(bloch(e)), float(np.trace(e).real)))
    return out


def _plan(style: str, guess: np.ndarray, rng: np.random.Generator):
    """Exposure groups of (Bloch vector, time weight) for one step."""
    if style == "random":
        u = _unit(rng.standard_normal(3))
        return [[(u, 1.0), (-u, 1.0)]]
    if style == "eigen":
        a = _unit(guess)
        return [[(x, 1.0), (-x, 1.0)] for x in (a, *tangent_basis(a).T)]
    elems = _transformed(guess)
    if style == "rankp-nc":
        return [[e] for e in elems]
    if style == "rankp-b":
        return [[(m, w), (-m, w)] for m, w in elems]
    if style == "rankp-m":
        total = sum(w * from_bloch(m) for m, w in elems)
        lam, vecs = np.linalg.eigh(total)
        mu = lam[-1]
        out = [[(m, w / mu)] for m, w in elems]
        for lam_j, col in zip(lam, vecs.T):
            weight = 1.0 - lam_j / mu
            if weight > INERT:
                out.append([(_unit(bloch(np.outer(col, col.conj()))), weight)])
        return out
    raise ValueError(f"unknown stream style {style!r}")


def make_stream(style: str, n_max: float, rng: np.random.Generator) -> Stream:
    """One stream of the given style on a Haar-random pure state."""
    r_true = _unit(rng.standard_normal(3))
    groups = []
    n_emit, budget, step = 0.0, INITIAL_BUDGET, 0
    while n_emit < n_max:
        if step == 0:
            plan = [[(x, 1.0), (-x, 1.0)] for x in _AXES]
        else:
            eta = 1.0 / np.sqrt(n_emit + 100.0)
            guess = (1.0 - eta) * _unit(r_true + eta * rng.standard_normal(3))
            plan = _plan(style, guess, rng)
        exposure = sum(max(w for _, w in g) for g in plan)
        base_time = budget / (INTENSITY * exposure)
        for g in plan:
            recs = []
            for m, w in g:
                t = w * base_time
                p = min(max(0.5 * (1.0 + m @ r_true), 0.0), 1.0)
                recs.append((m, t, int(rng.poisson(INTENSITY * p * t))))
            groups.append(recs)
        n_emit += budget
        budget *= GROWTH
        step += 1
    return Stream(style, groups)


def write_stream(path: Path, stream: Stream) -> None:
    """The program's record-stream format: header `D,I`, then one line per
    record: group id, the 2x2 projector as re/im pairs, time, counts."""
    lines = [f"2,{INTENSITY!r}"]
    for gid, g in enumerate(stream.groups):
        for m, t, n in g:
            mat = from_bloch(m).reshape(-1)
            entries = [repr(float(x)) for z in mat for x in (z.real, z.imag)]
            lines.append(",".join([str(gid), *entries, repr(float(t)), str(n)]))
    Path(path).write_text("\n".join(lines) + "\n")
