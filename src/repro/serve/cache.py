"""Content-hash-keyed LRU cache of built graphs and scaled features.

Repeated predictions on the same schematic used to pay ``build_graph`` +
``FeatureScaler.transform`` every single time — for the small circuits a
designer iterates on, that preprocessing rivals the GNN forward pass
itself.  :class:`GraphCache` keys each circuit by a **content hash** (not
object identity, so a re-parsed netlist hits the same entry), stores the
built :class:`~repro.graph.hetero.HeteroGraph`, and memoises the scaled
:class:`~repro.models.GraphInputs` per feature-scaler fingerprint (models
trained on different bundles scale differently).

In front of the content key sits a *text index*: a request that carries
netlist text is first looked up by :func:`text_key` of its name and text,
so a byte-identical re-submission hits without parsing the netlist or
fingerprinting the circuit.  The content fingerprint stays the entry's
key, so two formattings of one circuit still share one entry.

Hit/miss counts are observable both directly (:attr:`GraphCache.hits` /
:attr:`GraphCache.misses` / :attr:`GraphCache.text_hits`, always on) and
through the ``repro.obs`` counters ``serve.graph_cache_hits_total`` /
``serve.graph_cache_misses_total`` / ``serve.graph_cache_text_hits_total``
(a subset of the hits) when collection is enabled.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from repro import forksafe, obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.types import PredictionRequest
    from repro.circuits.netlist import Circuit
    from repro.data.normalize import FeatureScaler
    from repro.graph.hetero import HeteroGraph
    from repro.models.inputs import GraphInputs


# Fingerprints moved to repro.data.fingerprint (the training-side
# MergedInputsCache keys on them too); re-exported here because they are
# part of the repro.serve surface.
from repro.data.fingerprint import (  # noqa: F401
    circuit_fingerprint,
    scaler_fingerprint,
)


#: The text index holds at most this many keys per entry the LRU may hold.
TEXT_KEYS_PER_ENTRY = 4


def text_key(name: str, text: str) -> bytes:
    """Text-index key of a netlist request: a hash of its name and text.

    The name is length-prefixed, so no (name, text) split of the same
    bytes can collide with another.
    """
    name_bytes = name.encode("utf-8", "surrogatepass")
    hasher = hashlib.sha256(len(name_bytes).to_bytes(8, "big"))
    hasher.update(name_bytes)
    hasher.update(text.encode("utf-8", "surrogatepass"))
    return hasher.digest()


def arrays_nbytes(obj, _seen: set | None = None, _depth: int = 0) -> int:
    """Approximate bytes held in numpy arrays reachable from *obj*.

    Walks dicts/sequences/plain objects a few levels deep (graphs, scaled
    inputs and their cached :class:`~repro.nn.plan.SegmentPlan` schedules)
    without following cycles.  An estimate for cache budgeting, not an
    exact allocator account.
    """
    if _depth > 6:
        return 0
    seen = _seen if _seen is not None else set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(arrays_nbytes(v, seen, _depth + 1) for v in obj.values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(arrays_nbytes(v, seen, _depth + 1) for v in obj)
    if isinstance(obj, (str, bytes, int, float, bool, type(None))):
        return 0
    attrs = getattr(obj, "__dict__", None)
    if attrs:
        return sum(arrays_nbytes(v, seen, _depth + 1) for v in attrs.values())
    return 0


def _graph_nbytes(graph: "HeteroGraph") -> int:
    """:func:`arrays_nbytes` of a graph, read from the fields that hold
    its arrays (the name lists and lookup maps hold none)."""
    arrays = {
        id(array): array
        for array in (
            *graph.nodes_of_type.values(),
            *graph.features.values(),
            *(array for pair in graph.edges.values() for array in pair),
        )
    }
    return sum(int(array.nbytes) for array in arrays.values())


class CachedGraph:
    """One cache entry: the built graph plus per-scaler scaled inputs.

    The per-scaler memo (``_inputs``) is part of the entry's byte account:
    every memoised :class:`GraphInputs` reports its size through
    ``on_grow`` so the owning :class:`GraphCache` can budget bytes, and
    :meth:`release` drops the memo (and each input's lazy plan cache)
    when the entry is evicted — an evicted graph must not stay alive
    through its own memo dict.
    """

    def __init__(
        self,
        fingerprint: str,
        graph: "HeteroGraph",
        on_grow=None,
    ):
        self.fingerprint = fingerprint
        self.graph = graph
        self.released = False
        self._inputs: dict[str, GraphInputs] = {}
        self._lock = forksafe.Lock()
        self._nbytes = _graph_nbytes(graph)
        self._on_grow = on_grow

    @property
    def nbytes(self) -> int:
        """Bytes attributed to this entry (graph + memoised inputs)."""
        with self._lock:
            return self._nbytes

    def inputs_for(self, scaler: "FeatureScaler") -> "GraphInputs":
        """Scaled :class:`GraphInputs`, built at most once per scaler."""
        key = scaler_fingerprint(scaler)
        with self._lock:
            inputs = self._inputs.get(key)
        if inputs is not None:
            return inputs
        from repro.models.inputs import GraphInputs

        inputs = GraphInputs.from_graph(self.graph, scaler)
        grown = 0
        with self._lock:
            winner = self._inputs.setdefault(key, inputs)
            if winner is inputs and not self.released:
                grown = arrays_nbytes(inputs)
                self._nbytes += grown
        # notify the owning cache outside the entry lock (lock order:
        # cache lock -> entry lock, never the other way around)
        if grown and self._on_grow is not None:
            self._on_grow(grown)
        return winner

    def release(self) -> None:
        """Drop memoised inputs and their plan caches (called on evict)."""
        with self._lock:
            self.released = True
            for inputs in self._inputs.values():
                cache = getattr(inputs, "_cache", None)
                if isinstance(cache, dict):
                    cache.clear()
            self._inputs.clear()
            self._on_grow = None


class GraphCache:
    """Thread-safe LRU of :class:`CachedGraph` entries, content-hash keyed.

    Bounded two ways: ``max_entries`` (entry count) and, optionally,
    ``max_bytes`` — an approximate budget over each entry's graph *plus*
    its per-scaler memoised inputs (the memo used to escape accounting,
    so a 256-entry cache could quietly hold many times its nominal
    footprint).  Evicted entries are :meth:`CachedGraph.release`-d so the
    memo dict and plan caches die with the entry.

    The text index maps :func:`text_key` of a request to the fingerprint
    of an entry this cache holds for it.  Parsing and fingerprinting
    are pure, so a key never maps to a wrong fingerprint; a key whose
    entry was evicted misses.  The index is an LRU of at most
    ``TEXT_KEYS_PER_ENTRY * max_entries`` keys.
    """

    def __init__(self, max_entries: int = 256, max_bytes: int | None = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None)")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, CachedGraph] = OrderedDict()
        self._by_text: OrderedDict[bytes, str] = OrderedDict()
        self._lock = forksafe.RLock()
        self._bytes = 0
        self.hits = 0
        self.text_hits = 0  # the hits that skipped parse and fingerprint
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def current_bytes(self) -> int:
        """Approximate bytes held by cached graphs + memoised inputs."""
        with self._lock:
            return self._bytes

    def get(
        self, source: "Circuit | PredictionRequest", use_cache: bool = True
    ) -> CachedGraph:
        """Entry for a circuit, building (and caching) the graph on a miss."""
        return self.lookup(source, use_cache=use_cache)[0]

    def lookup(
        self, source: "Circuit | PredictionRequest", use_cache: bool = True
    ) -> tuple[CachedGraph, bool]:
        """(entry, was_hit) for a circuit or a request, building the graph
        on a miss.

        A :class:`~repro.api.types.PredictionRequest` with netlist text is
        first looked up in the text index; a hit there neither parses the
        netlist nor fingerprints the circuit.  Otherwise the request's
        circuit is resolved (parsed) and looked up by content.

        ``use_cache=False`` builds a fresh throwaway entry without touching
        the LRU state or the text index — for one-shot circuits that
        should not evict hot entries.
        """
        request = source if hasattr(source, "resolve_circuit") else None
        key = None
        if use_cache and request is not None and request.netlist_text is not None:
            key = text_key(request.circuit_name, request.netlist_text)
            with self._lock:
                fingerprint = self._by_text.get(key)
                entry = self._entries.get(fingerprint) if fingerprint else None
                if entry is not None:
                    self._by_text.move_to_end(key)
                    self._entries.move_to_end(fingerprint)
                    self.hits += 1
                    self.text_hits += 1
                    obs.inc("serve.graph_cache_hits_total")
                    obs.inc("serve.graph_cache_text_hits_total")
                    return entry, True
        circuit = request.resolve_circuit() if request is not None else source
        fingerprint = circuit_fingerprint(circuit)
        if use_cache:
            with self._lock:
                entry = self._entries.get(fingerprint)
                if entry is not None:
                    self._entries.move_to_end(fingerprint)
                    self._index(key, fingerprint)
                    self.hits += 1
                    obs.inc("serve.graph_cache_hits_total")
                    return entry, True
                self.misses += 1
            obs.inc("serve.graph_cache_misses_total")
        from repro.graph.builder import build_graph

        graph = build_graph(circuit)
        if not use_cache:
            return CachedGraph(fingerprint, graph), False
        entry = CachedGraph(fingerprint, graph, on_grow=self._note_growth)
        with self._lock:
            self._index(key, fingerprint)
            existing = self._entries.get(fingerprint)
            if existing is not None:  # raced with another thread
                entry.release()
                return existing, True
            self._entries[fingerprint] = entry
            self._bytes += entry.nbytes
            self._evict_over_budget()
        return entry, False

    def _index(self, key: bytes | None, fingerprint: str) -> None:
        """Map a text key to a cached fingerprint.  Caller holds the lock."""
        if key is None:
            return
        self._by_text[key] = fingerprint
        self._by_text.move_to_end(key)
        while len(self._by_text) > TEXT_KEYS_PER_ENTRY * self.max_entries:
            self._by_text.popitem(last=False)

    def _note_growth(self, delta: int) -> None:
        """A cached entry memoised new inputs; re-check the byte budget."""
        with self._lock:
            self._bytes += delta
            self._evict_over_budget()
        obs.set_gauge("serve.graph_cache_bytes", self._bytes)

    def _evict_over_budget(self) -> None:
        """Evict LRU entries beyond either bound.  Caller holds the lock.

        The newest entry always survives, even over ``max_bytes`` — a
        single circuit larger than the whole budget must still serve.
        """
        while len(self._entries) > self.max_entries or (
            self.max_bytes is not None
            and self._bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            evicted.release()
            self.evictions += 1
            obs.inc("serve.graph_cache_evictions_total")
        if self._bytes < 0:  # pragma: no cover - defensive
            self._bytes = 0

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            for entry in self._entries.values():
                entry.release()
            self._entries.clear()
            self._by_text.clear()
            self._bytes = 0
            self.hits = 0
            self.text_hits = 0
            self.misses = 0
            self.evictions = 0
