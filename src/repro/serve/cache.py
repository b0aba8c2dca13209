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


class CachedGraph:
    """One cache entry: the built graph plus per-scaler scaled inputs.

    The per-scaler memo (``_inputs``) lives and dies with the entry: once
    the cache evicts it and the callers drop it, refcounting frees the
    graph and every memoised :class:`GraphInputs`.
    """

    def __init__(self, fingerprint: str, graph: "HeteroGraph"):
        self.fingerprint = fingerprint
        self.graph = graph
        self._inputs: dict[str, GraphInputs] = {}
        self._lock = forksafe.Lock()

    def inputs_for(self, scaler: "FeatureScaler") -> "GraphInputs":
        """Scaled :class:`GraphInputs`, built at most once per scaler."""
        key = scaler_fingerprint(scaler)
        with self._lock:
            inputs = self._inputs.get(key)
        if inputs is not None:
            return inputs
        from repro.models.inputs import GraphInputs

        inputs = GraphInputs.from_graph(self.graph, scaler)
        with self._lock:
            return self._inputs.setdefault(key, inputs)


class GraphCache:
    """Thread-safe LRU of :class:`CachedGraph` entries, content-hash keyed.

    Bounded by ``max_entries``: a lookup that adds an entry beyond it
    evicts the least recently used one.  The cache never takes an entry's
    lock.

    The text index maps :func:`text_key` of a request to the fingerprint
    of an entry this cache holds for it.  Parsing and fingerprinting
    are pure, so a key never maps to a wrong fingerprint; a key whose
    entry was evicted misses.  The index is an LRU of at most
    ``TEXT_KEYS_PER_ENTRY * max_entries`` keys.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, CachedGraph] = OrderedDict()
        self._by_text: OrderedDict[bytes, str] = OrderedDict()
        self._lock = forksafe.Lock()
        self.hits = 0
        self.text_hits = 0  # the hits that skipped parse and fingerprint
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

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
        entry = CachedGraph(fingerprint, graph)
        if not use_cache:
            return entry, False
        with self._lock:
            self._index(key, fingerprint)
            existing = self._entries.get(fingerprint)
            if existing is not None:  # raced with another thread
                return existing, True
            self._entries[fingerprint] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                obs.inc("serve.graph_cache_evictions_total")
        return entry, False

    def _index(self, key: bytes | None, fingerprint: str) -> None:
        """Map a text key to a cached fingerprint.  Caller holds the lock."""
        if key is None:
            return
        self._by_text[key] = fingerprint
        self._by_text.move_to_end(key)
        while len(self._by_text) > TEXT_KEYS_PER_ENTRY * self.max_entries:
            self._by_text.popitem(last=False)

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_text.clear()
            self.hits = 0
            self.text_hits = 0
            self.misses = 0
            self.evictions = 0
