"""Finitely supported measures as dicts, convolved atom by atom: the test
oracle for the walk-count weight tables of ``walkrep.measures``, for
``markov.convergence_report`` and for the F_2-chain kernel of
``walkrep.continuous``.

``convolve`` multiplies every pair of atoms with ``groups.multiply`` and
accumulates in canonical order, so it works on every group kind, including
z2sum; ``dict_weight`` is the weight table it gives.  ``fwht`` and
``xor_convolve`` are the numpy butterfly that the list kernel of
``walkrep.continuous`` must match bit for bit.  ``gather_moves`` and
``gather_step`` are the index-gather form of the box kernel that
``measures._moves`` and ``measures._step`` compute with slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from walkrep import groups
from walkrep.config import WeightConfig
from walkrep.errors import DomainError
from walkrep.groups import GroupSpec


@dataclass
class SparseMeasure:
    """A finitely supported nonnegative measure; zero masses are dropped."""

    spec: GroupSpec
    masses: dict
    symmetric: bool = False

    def __post_init__(self):
        self.masses = {g: m for g, m in self.masses.items() if m != 0.0}
        for g, m in self.masses.items():
            if m < 0:
                raise DomainError(f"negative mass {m} at {g}")

    def mass(self, g) -> float:
        return self.masses.get(g, 0.0)

    def total(self) -> float:
        return sum(self.masses[g] for g in self.support())

    def support(self) -> list:
        return sorted(self.masses, key=lambda g: groups.sort_key(self.spec, g))

    def check_symmetry(self) -> bool:
        inv = groups.inverse
        return all(self.masses.get(inv(self.spec, g)) == m for g, m in self.masses.items())


def step_distribution(spec: GroupSpec) -> SparseMeasure:
    """Uniform mass 1/(2d+1) on the identity and the symmetric generators."""
    mass = 1.0 / (2 * spec.d + 1)
    table = {groups.identity(spec): mass}
    for a in groups.generators(spec):
        table[a] = mass
    return SparseMeasure(spec, table, symmetric=True)


def gather_moves(spec: GroupSpec, offset: tuple, shape: tuple, steps) -> list:
    """For each step s, the ``(source, destination)`` index arrays of the
    moves g -> g s that stay in the box (``groups.translate`` on every
    cell); the identity moves every cell, without an index gather."""
    cells = np.indices(shape).reshape(len(shape), -1).T - offset
    out = []
    for s in steps:
        if s == groups.identity(spec):
            out.append(((...,), (...,)))
            continue
        dest = groups.translate(spec, cells, s) + offset
        inside = ((dest >= 0) & (dest < shape)).all(axis=1)
        out.append((tuple((cells[inside] + offset).T), tuple(dest[inside].T)))
    return out


def gather_step(power: np.ndarray, moves: list, weights: list) -> np.ndarray:
    """One more step of a walk: ``weight * power`` moved by each step's
    indices of ``gather_moves``, added in the order of ``moves``."""
    nxt = np.zeros_like(power)
    for weight, (src, dst) in zip(weights, moves):
        nxt[dst] += power[src] if weight == 1 else weight * power[src]
    return nxt


def fwht(a: np.ndarray) -> np.ndarray:
    """The unnormalized Walsh-Hadamard transform of a length-2^n array, by
    n in-place butterfly passes (Fino-Algazi, 1976)."""
    size = a.size
    h = 1
    while h < size:
        a = a.reshape(-1, 2, h)
        a = np.stack((a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]), axis=1)
        h *= 2
    return a.reshape(size)


def xor_convolve(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    return fwht(fwht(mu) * fwht(nu)) / mu.size


def convolve(spec: GroupSpec, mu: SparseMeasure, nu: SparseMeasure) -> SparseMeasure:
    """(mu*nu)(g) = sum_h mu(g h^-1) nu(h), accumulated in canonical order."""
    acc: dict = {}
    for x in mu.support():
        mx = mu.masses[x]
        for y in nu.support():
            g = groups.multiply(spec, x, y)
            acc[g] = acc.get(g, 0.0) + mx * nu.masses[y]
    return SparseMeasure(spec, acc)


def mirror(spec: GroupSpec, measure: SparseMeasure) -> SparseMeasure:
    """Force exact symmetry by copying each value from the canonical side."""
    fixed = {}
    for g in measure.support():
        rep = min(g, groups.inverse(spec, g), key=lambda h: groups.sort_key(spec, h))
        fixed[g] = measure.masses[rep]
    return SparseMeasure(spec, fixed, symmetric=True)


def convolution_powers(spec: GroupSpec, rho: SparseMeasure, n: int) -> list:
    """[rho, rho^{*2}, ..., rho^{*n}]."""
    out = [rho]
    for _ in range(n - 1):
        nxt = convolve(spec, out[-1], rho)
        out.append(mirror(spec, nxt) if rho.symmetric else nxt)
    return out


def mixture(params: WeightConfig, terms) -> dict:
    """sum_n p_n mu_n over the measures mu_1, mu_2, ... of ``terms``, each
    added over its support in canonical order."""
    acc: dict = {}
    for n, mu in enumerate(terms, start=1):
        pn = params.p(n)
        for g in mu.support():
            acc[g] = acc.get(g, 0.0) + pn * mu.masses[g]
    return acc


@dataclass
class DictWeight:
    """The truncated weight as one dict per depth."""

    spec: GroupSpec
    params: WeightConfig
    partials: list

    @property
    def table(self) -> dict:
        return self.partials[-1]

    def partial_weight(self, g, depth: int) -> float:
        return self.partials[depth].get(g, 0.0)

    def weight(self, g) -> float:
        return self.table.get(g, 0.0)

    def support(self) -> list:
        return sorted(self.table, key=lambda g: groups.sort_key(self.spec, g))


def dict_weight(spec: GroupSpec, params: WeightConfig, rho: SparseMeasure | None = None) -> DictWeight:
    """The weight of ``rho`` (by default the lazy step) by dict convolution."""
    powers = convolution_powers(spec, rho or step_distribution(spec), params.n_max)
    return DictWeight(spec, params, [mixture(params, powers[:k]) for k in range(params.n_max + 1)])
