"""Approximate nearest-neighbour search on a layered small-world graph.

Nodes are inserted one at a time.  Each node draws a top layer from a
geometric distribution with scale 1/ln(m), so layer L holds roughly a
1/m^L fraction of all nodes.  Insertion descends greedily from the
entry point through the upper layers, then connects the node on every
layer it occupies, picking neighbours with a spread-preserving
heuristic and pruning any adjacency list that outgrows its cap (m per
upper layer, 2m on the ground layer).  Queries descend the same way and
run a best-first beam of width ef_search on the ground layer.

A node is a row of an embedding table, which holds its vector; the index
keeps only row numbers and saves only the graph, so loading takes the
same table, parameters and points that building did.  Construction is
single-threaded and fully deterministic for a fixed seed and insertion
order; that, not speed, is the canonical behaviour.  Returned distances
are exact (recomputed in float64), only the neighbour *set* is approximate.
Distances are Euclidean.  ``brute_force_knn`` is the exact scan: the
enzyme gate's neighbour search, and the oracle used to measure recall.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import read_container, write_container
from .embedding import EmbeddingTable

_KIND = "ann-index"


class AnnFormatError(ValueError):
    """A saved index is truncated, padded or fails its graph invariants."""


@dataclass(frozen=True)
class AnnParams:
    m: int = 100
    ef_construction: int = 300
    ef_search: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if self.ef_construction < 1 or self.ef_search < 1:
            raise ValueError("ef_construction and ef_search must be positive")

    @property
    def level_scale(self) -> float:
        return 1.0 / np.log(self.m)

    def max_degree(self, layer: int) -> int:
        return 2 * self.m if layer == 0 else self.m


def brute_force_knn(table: EmbeddingTable, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Exact k nearest neighbours, total order with ties broken by id."""
    if k < 1:
        raise ValueError("k must be positive")
    diff = table.matrix() - np.asarray(query, dtype=np.float64)
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    # Only rows at or below the k-th smallest distance can make the cut.
    rows = range(len(dists))
    if k < len(dists):
        rows = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1]).tolist()
    ids = table.ids()
    order = sorted(rows, key=lambda i: (dists[i], ids[i]))[:k]
    return [(ids[i], float(dists[i])) for i in order]


class AnnIndex:
    """Layered graph index whose node i has the vector ``matrix[rows[i]]``."""

    def __init__(self, params: AnnParams, matrix: np.ndarray, rows: Sequence[int]):
        self.params = params
        self.dim = matrix.shape[1]
        self.ids: list[str] = []
        self.levels: list[int] = []
        self.graph: list[list[list[int]]] = []  # graph[node][layer] -> neighbours
        self._matrix = matrix
        self._rows = np.asarray(rows, dtype=np.intp)
        self.entry: int = -1
        self.top_level: int = -1
        self._rng = np.random.default_rng(params.seed)

    def __len__(self) -> int:
        return len(self.ids)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, table: EmbeddingTable, params: AnnParams,
              points: Optional[Iterable[tuple[str, str]]] = None) -> "AnnIndex":
        """Insert ``points``, (node id, table id) pairs, in order; by default
        every table id is a node of its own."""
        node_ids, rows = _nodes(table, points)
        index = cls(params, table.matrix(), rows)
        for node_id in node_ids:
            index._insert(node_id)
        return index

    def _random_level(self) -> int:
        u = float(self._rng.random())
        u = max(u, np.finfo(float).tiny)
        return int(-np.log(u) * self.params.level_scale)

    def _dist_many(self, q: np.ndarray, nodes: Sequence[int]) -> np.ndarray:
        rows = self._matrix[self._rows[np.asarray(nodes, dtype=np.intp)]]
        rows -= q  # a gathered copy, so it may be overwritten
        return np.sqrt(np.einsum("ij,ij->i", rows, rows))

    def _vector(self, node: int) -> np.ndarray:
        return self._matrix[self._rows[node]]

    def _search_layer(
        self, q: np.ndarray, entry_points: list[int], ef: int, layer: int
    ) -> list[tuple[float, int]]:
        """Best-first beam of width ef; returns (dist, node) ascending."""
        visited = set(entry_points)
        dists = self._dist_many(q, entry_points)
        candidates = [(float(d), n) for d, n in zip(dists, entry_points)]
        heapq.heapify(candidates)
        best = [(-d, n) for d, n in candidates]
        heapq.heapify(best)
        while candidates:
            d, node = heapq.heappop(candidates)
            if d > -best[0][0] and len(best) >= ef:
                break
            fresh = [nb for nb in self.graph[node][layer] if nb not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            for dist, nb in zip(self._dist_many(q, fresh), fresh):
                dist = float(dist)
                if len(best) < ef or dist < -best[0][0]:
                    heapq.heappush(candidates, (dist, nb))
                    heapq.heappush(best, (-dist, nb))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted((-d, n) for d, n in best)

    def _select_neighbors(
        self, candidates: list[tuple[float, int]], m: int
    ) -> list[int]:
        """Spread-preserving selection: keep a candidate only if it is
        closer to the query than to every neighbour already kept, then
        backfill with the nearest pruned candidates up to m."""
        nodes = [node for _, node in candidates]
        # nearest[i]: distance from candidate i to the closest node kept so
        # far; each kept node updates it for every later candidate at once.
        nearest = np.full(len(nodes), np.inf)
        selected: list[int] = []
        pruned: list[int] = []
        for i, (d, node) in enumerate(candidates):
            if len(selected) >= m:
                break
            if nearest[i] < d:
                pruned.append(node)
                continue
            selected.append(node)
            if len(selected) < m and i + 1 < len(nodes):
                to_rest = self._dist_many(self._vector(node), nodes[i + 1:])
                np.minimum(nearest[i + 1:], to_rest, out=nearest[i + 1:])
        return selected + pruned[: m - len(selected)]

    def _insert(self, node_id: str) -> None:
        """Link the next of the constructor's rows into the graph as ``node_id``."""
        node = len(self.ids)
        if node >= len(self._rows):
            raise RuntimeError("index capacity exhausted; build from a table")
        vec = self._vector(node)
        level = self._random_level()
        self.ids.append(node_id)
        self.levels.append(level)
        self.graph.append([[] for _ in range(level + 1)])
        if self.entry < 0:
            self.entry, self.top_level = node, level
            return
        eps = [self.entry]
        for layer in range(self.top_level, level, -1):
            eps = [self._search_layer(vec, eps, 1, layer)[0][1]]
        for layer in range(min(self.top_level, level), -1, -1):
            found = self._search_layer(vec, eps, self.params.ef_construction, layer)
            neighbors = self._select_neighbors(found, self.params.m)
            self.graph[node][layer] = list(neighbors)
            cap = self.params.max_degree(layer)
            for nb in neighbors:
                links = self.graph[nb][layer]
                links.append(node)
                if len(links) > cap:
                    dists = self._dist_many(self._vector(nb), links)
                    ranked = sorted(zip(dists.tolist(), links))
                    self.graph[nb][layer] = self._select_neighbors(ranked, cap)
            eps = [n for _, n in found]
        if level > self.top_level:
            self.entry, self.top_level = node, level

    # -- queries -------------------------------------------------------------

    def search(
        self, query: np.ndarray, k: int, ef_search: Optional[int] = None
    ) -> list[tuple[str, float]]:
        """k approximate nearest ids with exact distances.

        Asking for more points than the index holds returns everything,
        sorted, without error.
        """
        if k < 1:
            raise ValueError("k must be positive")
        if not self.ids:
            return []
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query has shape {q.shape}, index dim is {self.dim}")
        ef = max(ef_search if ef_search is not None else self.params.ef_search, k)
        eps = [self.entry]
        for layer in range(self.top_level, 0, -1):
            eps = [self._search_layer(q, eps, 1, layer)[0][1]]
        found = self._search_layer(q, eps, ef, 0)
        found.sort(key=lambda pair: (pair[0], self.ids[pair[1]]))
        return [(self.ids[n], float(d)) for d, n in found[:k]]

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        """Degree caps, layer membership, and link sanity for every node."""
        n = len(self.ids)
        for node in range(n):
            if len(self.graph[node]) != self.levels[node] + 1:
                raise AssertionError(f"node {node}: layer list does not match its level")
            for layer, links in enumerate(self.graph[node]):
                if len(links) > self.params.max_degree(layer):
                    raise AssertionError(
                        f"node {node} layer {layer}: degree {len(links)} exceeds "
                        f"{self.params.max_degree(layer)}"
                    )
                for nb in links:
                    if not 0 <= nb < n:
                        raise AssertionError(f"node {node}: neighbour {nb} out of range")
                    if nb == node:
                        raise AssertionError(f"node {node}: self link on layer {layer}")
                    if self.levels[nb] < layer:
                        raise AssertionError(
                            f"edge {node}->{nb} on layer {layer} but neighbour "
                            f"only reaches layer {self.levels[nb]}"
                        )
        if n and not (0 <= self.entry < n and self.levels[self.entry] == self.top_level):
            raise AssertionError("entry point does not match the top level")

    # -- serialization ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Container holding only the graph: ``meta = {entry, top_level}`` and
        the arrays ``levels``, ``degrees`` (one per node-layer, in node then
        layer order) and ``links`` (every list, concatenated)."""
        lists = [links for layers in self.graph for links in layers]
        write_container(path, _KIND, {"entry": self.entry, "top_level": self.top_level}, {
            "levels": np.asarray(self.levels, dtype="<u4"),
            "degrees": np.asarray([len(links) for links in lists], dtype="<u4"),
            "links": np.asarray([nb for links in lists for nb in links], dtype="<u4"),
        })

    @classmethod
    def load(cls, path: str | Path, table: EmbeddingTable, params: AnnParams,
             points: Optional[Iterable[tuple[str, str]]] = None) -> "AnnIndex":
        """Read the graph of an index built as ``build(table, params, points)``;
        any damage raises :class:`AnnFormatError`."""
        node_ids, rows = _nodes(table, points)
        meta, arrays = read_container(path, _KIND, AnnFormatError)
        try:
            links = arrays["links"]
            levels, degrees = arrays["levels"].tolist(), arrays["degrees"].tolist()
            if len(levels) != len(node_ids):
                raise AnnFormatError(
                    f"the file holds {len(levels)} nodes, not the {len(node_ids)} points")
            if len(degrees) != len(levels) + sum(levels) or sum(degrees) != len(links):
                raise AnnFormatError("degrees disagree with the levels or the links")
            index = cls(params, table.matrix(), rows)
            index.ids = node_ids
            index.levels = levels
            index.graph = _split(_split(links.tolist(), degrees), [lvl + 1 for lvl in levels])
            index.entry, index.top_level = meta["entry"], meta["top_level"]
            index.validate()
        except (AssertionError, KeyError, TypeError, ValueError) as exc:
            raise AnnFormatError(f"{path}: {exc}") from exc
        return index


def _nodes(table: EmbeddingTable,
           points: Optional[Iterable[tuple[str, str]]]) -> tuple[list[str], np.ndarray]:
    """Node ids and table rows of ``points``; by default every table id, in order."""
    points = list(points) if points is not None else [(i, i) for i in table.ids()]
    return [node_id for node_id, _ in points], table.rows([rec_id for _, rec_id in points])


def _split(items: list, sizes: list[int]) -> list[list]:
    """Cut ``items`` into consecutive runs of the given sizes."""
    bounds = list(accumulate(sizes, initial=0))
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]
