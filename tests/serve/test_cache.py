"""GraphCache: content-hash identity, LRU behaviour, per-scaler inputs.

The fingerprints themselves are tested in ``tests/data/test_fingerprint.py``.
"""

import pytest

from repro.circuits.spice import read_spice, write_spice
from repro.serve import GraphCache


@pytest.fixture
def circuits(tiny_bundle):
    return [record.circuit for record in tiny_bundle.records("test")]


class TestGraphCache:
    def test_miss_then_hit(self, circuits):
        cache = GraphCache()
        entry, hit = cache.lookup(circuits[0])
        assert not hit and cache.misses == 1 and cache.hits == 0
        again, hit = cache.lookup(circuits[0])
        assert hit and again is entry
        assert cache.hits == 1 and cache.hit_rate() == 0.5

    def test_reparsed_circuit_hits(self, circuits):
        cache = GraphCache()
        text = write_spice(circuits[0])
        cache.get(read_spice(text, name="same"))
        _, hit = cache.lookup(read_spice(text, name="same"))
        assert hit

    def test_lru_eviction(self, circuits):
        cache = GraphCache(max_entries=2)
        a, b, c = circuits[:3]
        cache.get(a)
        cache.get(b)
        cache.get(a)  # refresh a; b is now least recent
        cache.get(c)  # evicts b
        assert len(cache) == 2
        _, hit_a = cache.lookup(a)
        assert hit_a
        _, hit_b = cache.lookup(b)
        assert not hit_b  # was evicted, rebuilt

    def test_use_cache_false_is_invisible(self, circuits):
        cache = GraphCache()
        entry, hit = cache.lookup(circuits[0], use_cache=False)
        assert not hit
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0
        assert entry.graph.num_nodes > 0

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            GraphCache(max_entries=0)

    def test_clear(self, circuits):
        cache = GraphCache()
        cache.get(circuits[0])
        cache.get(circuits[0])
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


class TestCachedInputs:
    def test_inputs_memoised_per_scaler(self, circuits, tiny_bundle):
        cache = GraphCache()
        entry = cache.get(circuits[0])
        scaler = tiny_bundle.scaler
        first = entry.inputs_for(scaler)
        assert entry.inputs_for(scaler) is first
        assert first.num_nodes == entry.graph.num_nodes

    def test_distinct_scalers_get_distinct_inputs(self, circuits, tiny_bundle):
        import copy

        cache = GraphCache()
        entry = cache.get(circuits[0])
        scaler = tiny_bundle.scaler
        other = copy.deepcopy(scaler)
        # perturb so the content fingerprint differs
        other._content_fingerprint = None
        for type_name in other.means:
            other.means[type_name] = other.means[type_name] + 1.0
            break
        other._content_fingerprint = None
        first = entry.inputs_for(scaler)
        second = entry.inputs_for(other)
        assert second is not first

    def test_eviction_releases_memoised_inputs(self, circuits, tiny_bundle):
        """An evicted entry's memoised inputs die with the entry, by
        refcount alone, once the caller drops it."""
        import weakref

        cache = GraphCache(max_entries=1)
        entry = cache.get(circuits[0])
        inputs = entry.inputs_for(tiny_bundle.scaler)
        ref = weakref.ref(inputs)
        cache.get(circuits[1])  # evicts circuits[0]
        assert cache.evictions == 1
        del inputs, entry
        assert ref() is None  # nothing keeps the evicted inputs alive


class TestTextIndex:
    """A repeat of a request's (name, netlist text) hits without parsing
    the netlist or fingerprinting the circuit."""

    @staticmethod
    def _request(text, name="same"):
        from repro.api.types import PredictionRequest

        return PredictionRequest(netlist_text=text, name=name)

    @staticmethod
    def _count_parses(monkeypatch):
        import repro.circuits.spice as spice

        calls = []
        real = spice.read_spice

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(spice, "read_spice", counting)
        return calls

    def test_repeat_skips_parse_and_fingerprint(self, circuits, monkeypatch):
        import repro.circuits.spice as spice
        import repro.serve.cache as cache_module

        cache = GraphCache()
        text = write_spice(circuits[0])
        entry, hit = cache.lookup(self._request(text))
        assert not hit

        def boom(*args, **kwargs):
            raise AssertionError("a text-index hit must not parse or hash")

        monkeypatch.setattr(spice, "read_spice", boom)
        monkeypatch.setattr(cache_module, "circuit_fingerprint", boom)
        again, hit = cache.lookup(self._request(text))
        assert hit and again is entry
        assert cache.hits == 1 and cache.text_hits == 1 and cache.misses == 1

    def test_reformatted_netlist_shares_the_content_entry(
        self, circuits, monkeypatch
    ):
        cache = GraphCache()
        text = write_spice(circuits[0])
        entry, _ = cache.lookup(self._request(text))
        parses = self._count_parses(monkeypatch)
        reformatted = "* the same circuit, commented\n" + text.replace(" ", "  ")
        again, hit = cache.lookup(self._request(reformatted))
        assert hit and again is entry and parses == [1]
        assert cache.text_hits == 0 and len(cache) == 1
        # the re-formatted bytes are now indexed too
        _, hit = cache.lookup(self._request(reformatted))
        assert hit and parses == [1] and cache.text_hits == 1

    def test_a_different_name_is_a_different_entry(self, circuits):
        cache = GraphCache()
        text = write_spice(circuits[0])
        first, _ = cache.lookup(self._request(text, name="a"))
        second, hit = cache.lookup(self._request(text, name="b"))
        assert not hit and second is not first
        assert second.fingerprint != first.fingerprint
        assert len(cache) == 2 and cache.text_hits == 0

    def test_key_separates_name_from_text(self):
        from repro.serve.cache import text_key

        assert text_key("a\0b", "c") != text_key("a", "b\0c")
        assert text_key("ab", "c") != text_key("a", "bc")
        assert text_key("a", "b") == text_key("a", "b")

    def test_index_is_bounded(self, circuits):
        from repro.serve.cache import TEXT_KEYS_PER_ENTRY

        cache = GraphCache(max_entries=2)
        text = write_spice(circuits[0])
        for spaces in range(1, 4 * TEXT_KEYS_PER_ENTRY * cache.max_entries):
            # distinct bytes, one circuit: many keys for one entry
            cache.get(self._request(text + " " * spaces))
        for circuit in circuits[1:4]:
            cache.get(self._request(write_spice(circuit), name=circuit.name))
        assert len(cache._by_text) <= TEXT_KEYS_PER_ENTRY * cache.max_entries

    def test_keys_of_an_evicted_entry_miss(self, circuits, monkeypatch):
        cache = GraphCache(max_entries=1)
        first = self._request(write_spice(circuits[0]))
        cache.get(first)
        cache.get(self._request(write_spice(circuits[1]), name="other"))
        parses = self._count_parses(monkeypatch)
        _, hit = cache.lookup(self._request(first.netlist_text))
        assert not hit and parses == [1] and cache.text_hits == 0

    def test_use_cache_false_neither_reads_nor_writes(self, circuits,
                                                      monkeypatch):
        cache = GraphCache()
        text = write_spice(circuits[0])
        cache.get(self._request(text))
        parses = self._count_parses(monkeypatch)
        _, hit = cache.lookup(self._request(text), use_cache=False)
        assert not hit and parses == [1]
        other = write_spice(circuits[1])
        cache.lookup(self._request(other, name="o"), use_cache=False)
        _, hit = cache.lookup(self._request(other, name="o"))
        assert not hit and cache.text_hits == 0 and parses == [1, 1, 1]

    def test_unparseable_netlist_is_never_indexed(self, monkeypatch):
        from repro.errors import NetlistError

        cache = GraphCache()
        for _ in range(2):
            with pytest.raises(NetlistError):
                cache.lookup(self._request("M1 a b\n", name="bad"))
        assert len(cache._by_text) == 0 and len(cache) == 0

    def test_clear_empties_the_index(self, circuits):
        cache = GraphCache()
        text = write_spice(circuits[0])
        cache.get(self._request(text))
        cache.get(self._request(text))
        cache.clear()
        assert cache.text_hits == 0 and len(cache._by_text) == 0
        _, hit = cache.lookup(self._request(text))
        assert not hit
