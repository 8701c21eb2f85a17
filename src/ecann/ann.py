"""Approximate nearest-neighbour search on a layered small-world graph.

Nodes are inserted one at a time.  Each node draws a top layer from a
geometric distribution with scale 1/ln(m), so layer L holds roughly a
1/m^L fraction of all nodes.  Insertion descends greedily from the
entry point through the upper layers, then connects the node on every
layer it occupies, picking neighbours with a spread-preserving
heuristic and pruning any adjacency list that outgrows its cap (m per
upper layer, 2m on the ground layer).  Queries descend the same way and
run a best-first beam of width ef_search on the ground layer.

Construction is single-threaded and fully deterministic for a fixed
seed and insertion order; that, not speed, is the canonical behaviour.
Returned distances are exact (recomputed in float64), only the
neighbour *set* is approximate.  ``brute_force_knn`` is the exact
oracle used to measure recall.
"""
from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .embedding import EmbeddingTable

_MAGIC = b"ECANN1\n"
_VERSION = 1
_METRICS = ("euclidean", "cosine")


@dataclass(frozen=True)
class AnnParams:
    m: int = 100
    ef_construction: int = 300
    ef_search: int = 300
    metric: str = "euclidean"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if self.ef_construction < 1 or self.ef_search < 1:
            raise ValueError("ef_construction and ef_search must be positive")
        if self.metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}, got {self.metric!r}")

    @property
    def level_scale(self) -> float:
        return 1.0 / np.log(self.m)

    def max_degree(self, layer: int) -> int:
        return 2 * self.m if layer == 0 else self.m


def _distances(metric: str, matrix: np.ndarray, norms: np.ndarray, q: np.ndarray,
               q_norm: float, idxs: np.ndarray) -> np.ndarray:
    rows = matrix[idxs]  # a gathered copy, so it may be overwritten
    if metric == "euclidean":
        rows -= q
        return np.sqrt(np.einsum("ij,ij->i", rows, rows))
    return 1.0 - (rows @ q) / (norms[idxs] * q_norm)


def brute_force_knn(
    table: EmbeddingTable, query: np.ndarray, k: int, metric: str = "euclidean"
) -> list[tuple[str, float]]:
    """Exact k nearest neighbours, total order with ties broken by id."""
    if k < 1:
        raise ValueError("k must be positive")
    ids = table.ids()
    if not ids:
        return []
    matrix = table.matrix(ids)
    q = np.asarray(query, dtype=np.float64)
    if metric == "euclidean":
        # The stacked matrix is a fresh copy: subtracting in place keeps one
        # table-sized temporary per query instead of two.
        diff = matrix.astype(np.float64, copy=False)
        diff -= q
        dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    elif metric == "cosine":
        norms = np.linalg.norm(matrix, axis=1)
        q_norm = float(np.linalg.norm(q))
        if q_norm == 0.0 or np.any(norms == 0.0):
            raise ValueError("cosine distance undefined for zero vectors")
        dists = 1.0 - (matrix @ q) / (norms * q_norm)
    else:
        raise ValueError(f"metric must be one of {_METRICS}, got {metric!r}")
    order = sorted(range(len(ids)), key=lambda i: (dists[i], ids[i]))[:k]
    return [(ids[i], float(dists[i])) for i in order]


class AnnIndex:
    """Layered graph index over an embedding table."""

    def __init__(self, params: AnnParams, dim: int):
        self.params = params
        self.dim = dim
        self.ids: list[str] = []
        self.levels: list[int] = []
        self.graph: list[list[list[int]]] = []  # graph[node][layer] -> neighbours
        self._matrix = np.zeros((0, dim), dtype=np.float64)
        self._norms = np.zeros(0, dtype=np.float64)
        self.entry: int = -1
        self.top_level: int = -1
        self._rng = np.random.default_rng(params.seed)

    def __len__(self) -> int:
        return len(self.ids)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, table: EmbeddingTable, params: AnnParams) -> "AnnIndex":
        index = cls(params, table.dim)
        ids = table.ids()
        matrix = table.matrix(ids)
        index._reserve(matrix)
        for rec_id, vec in zip(ids, matrix):
            index._insert(rec_id, vec)
        return index

    def _reserve(self, matrix: np.ndarray) -> None:
        if self.params.metric == "cosine" and np.any(np.linalg.norm(matrix, axis=1) == 0.0):
            raise ValueError("cosine metric cannot index zero vectors")
        self._capacity = len(matrix)
        self._matrix = np.zeros((len(matrix), self.dim), dtype=np.float64)
        self._norms = np.zeros(len(matrix), dtype=np.float64)

    def _random_level(self) -> int:
        u = float(self._rng.random())
        u = max(u, np.finfo(float).tiny)
        return int(-np.log(u) * self.params.level_scale)

    def _dist_many(self, q: np.ndarray, q_norm: float, idxs: Sequence[int]) -> np.ndarray:
        return _distances(
            self.params.metric, self._matrix, self._norms, q, q_norm,
            np.asarray(idxs, dtype=np.intp),
        )

    def _q_norm(self, q: np.ndarray) -> float:
        if self.params.metric != "cosine":
            return 1.0
        q_norm = float(np.linalg.norm(q))
        if q_norm == 0.0:
            raise ValueError("cosine distance undefined for a zero query")
        return q_norm

    def _search_layer(
        self, q: np.ndarray, q_norm: float, entry_points: list[int], ef: int, layer: int
    ) -> list[tuple[float, int]]:
        """Best-first beam of width ef; returns (dist, node) ascending."""
        visited = set(entry_points)
        dists = self._dist_many(q, q_norm, entry_points)
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
            for dist, nb in zip(self._dist_many(q, q_norm, fresh), fresh):
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
        selected: list[int] = []
        selected_d: list[float] = []
        pruned: list[tuple[float, int]] = []
        for d, node in candidates:
            if len(selected) >= m:
                break
            if selected:
                to_sel = self._dist_many(
                    self._matrix[node],
                    self._norms[node] if self.params.metric == "cosine" else 1.0,
                    selected,
                )
                if np.any(to_sel < d):
                    pruned.append((d, node))
                    continue
            selected.append(node)
            selected_d.append(d)
        for d, node in pruned:
            if len(selected) >= m:
                break
            selected.append(node)
        return selected

    def _insert(self, rec_id: str, vec: np.ndarray) -> None:
        node = len(self.ids)
        if node >= len(self._matrix):
            raise RuntimeError("index capacity exhausted; build from a table")
        self._matrix[node] = vec
        self._norms[node] = np.linalg.norm(vec)
        level = self._random_level()
        self.ids.append(rec_id)
        self.levels.append(level)
        self.graph.append([[] for _ in range(level + 1)])
        if self.entry < 0:
            self.entry, self.top_level = node, level
            return
        q_norm = self._norms[node] if self.params.metric == "cosine" else 1.0
        eps = [self.entry]
        for layer in range(self.top_level, level, -1):
            eps = [self._search_layer(vec, q_norm, eps, 1, layer)[0][1]]
        for layer in range(min(self.top_level, level), -1, -1):
            found = self._search_layer(vec, q_norm, eps, self.params.ef_construction, layer)
            neighbors = self._select_neighbors(found, self.params.m)
            self.graph[node][layer] = list(neighbors)
            cap = self.params.max_degree(layer)
            for nb in neighbors:
                links = self.graph[nb][layer]
                links.append(node)
                if len(links) > cap:
                    nb_norm = self._norms[nb] if self.params.metric == "cosine" else 1.0
                    dists = self._dist_many(self._matrix[nb], nb_norm, links)
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
        q_norm = self._q_norm(q)
        eps = [self.entry]
        for layer in range(self.top_level, 0, -1):
            eps = [self._search_layer(q, q_norm, eps, 1, layer)[0][1]]
        found = self._search_layer(q, q_norm, eps, ef, 0)
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
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(
                struct.pack(
                    "<IBIIIQ",
                    _VERSION,
                    _METRICS.index(self.params.metric),
                    self.params.m,
                    self.params.ef_construction,
                    self.params.ef_search,
                    self.params.seed,
                )
            )
            fh.write(struct.pack("<QIqi", len(self.ids), self.dim, self.entry, self.top_level))
            for rec_id in self.ids:
                raw = rec_id.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
            fh.write(np.asarray(self.levels, dtype="<u4").tobytes())
            fh.write(np.ascontiguousarray(self._matrix[: len(self.ids)], dtype="<f8").tobytes())
            for node in range(len(self.ids)):
                for links in self.graph[node]:
                    fh.write(struct.pack("<I", len(links)))
                    fh.write(np.asarray(links, dtype="<u4").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "AnnIndex":
        with open(path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise ValueError(f"{path}: not an index container")
            version, metric_code, m, ef_c, ef_s, seed = struct.unpack("<IBIIIQ", fh.read(25))
            if version != _VERSION:
                raise ValueError(f"{path}: unsupported container version {version}")
            params = AnnParams(
                m=m, ef_construction=ef_c, ef_search=ef_s,
                metric=_METRICS[metric_code], seed=seed,
            )
            count, dim, entry, top_level = struct.unpack("<QIqi", fh.read(24))
            index = cls(params, dim)
            for _ in range(count):
                (id_len,) = struct.unpack("<H", fh.read(2))
                index.ids.append(fh.read(id_len).decode("utf-8"))
            index.levels = list(
                np.frombuffer(fh.read(4 * count), dtype="<u4").astype(int)
            )
            raw = fh.read(8 * count * dim)
            if len(raw) != 8 * count * dim:
                raise ValueError(f"{path}: truncated vector block")
            index._matrix = np.frombuffer(raw, dtype="<f8").reshape(count, dim).copy()
            index._norms = np.linalg.norm(index._matrix, axis=1)
            for node in range(count):
                layers: list[list[int]] = []
                for _ in range(index.levels[node] + 1):
                    (degree,) = struct.unpack("<I", fh.read(4))
                    links = np.frombuffer(fh.read(4 * degree), dtype="<u4")
                    layers.append([int(x) for x in links])
                index.graph.append(layers)
            index.entry, index.top_level = entry, top_level
            if fh.read(1):
                raise ValueError(f"{path}: trailing bytes")
        index.validate()
        return index
