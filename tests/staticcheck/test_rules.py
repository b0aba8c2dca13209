"""Per-rule lint tests: one known-bad fixture per rule, plus clean twins."""

import pytest

from repro.errors import StaticCheckError
from repro.staticcheck import LintEngine, Severity, all_rules
from repro.staticcheck.rules import select_rules


def lint(source: str, path: str, rules=None):
    engine = LintEngine(rules or all_rules())
    return engine.check_source(path, source)


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


class TestAutodiffBypass:
    BAD = (
        "import numpy as np\n"
        "def agg(out, idx, vals):\n"
        "    np.add.at(out, idx, vals)\n"
        "    return out\n"
    )

    def test_flags_ufunc_at(self):
        findings = by_rule(
            lint(self.BAD, "src/repro/graph/whatever.py"), "autodiff-bypass"
        )
        assert len(findings) == 1
        assert findings[0].line == 3
        assert findings[0].severity is Severity.ERROR

    def test_flags_data_mutation(self):
        source = (
            "def step(param, grad, lr):\n"
            "    param.data -= lr * grad\n"
        )
        findings = by_rule(
            lint(source, "src/repro/models/trainer.py"), "autodiff-bypass"
        )
        assert len(findings) == 1

    def test_engine_modules_are_exempt(self):
        assert not lint(self.BAD, "src/repro/nn/plan.py")
        assert not lint(
            "def step(p, g, lr):\n    p.data -= lr * g\n",
            "src/repro/nn/optim.py",
        )


class TestPrecisionPolicy:
    def test_flags_dtype_literals(self):
        source = (
            "import numpy as np\n"
            "x = np.zeros(3, dtype=np.float64)\n"
            "y = x.astype('float32')\n"
        )
        findings = by_rule(
            lint(source, "src/repro/models/foo.py"), "precision-policy"
        )
        assert {f.line for f in findings} == {2, 3}

    def test_precision_module_is_exempt(self):
        source = "import numpy as np\nDEFAULT = np.dtype(np.float64)\n"
        assert not lint(source, "src/repro/nn/precision.py")

    def test_index_dtypes_pass(self):
        source = "import numpy as np\nidx = np.zeros(3, dtype=np.int64)\n"
        assert not by_rule(
            lint(source, "src/repro/models/foo.py"), "precision-policy"
        )


class TestDeterminism:
    def test_flags_unseeded_default_rng(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert by_rule(lint(source, "src/repro/data/foo.py"), "determinism")

    def test_seeded_rng_passes(self):
        source = "import numpy as np\nrng = np.random.default_rng(1234)\n"
        assert not by_rule(lint(source, "src/repro/data/foo.py"), "determinism")

    def test_flags_global_numpy_rng_and_wall_clock(self):
        source = (
            "import time\n"
            "import numpy as np\n"
            "def jitter():\n"
            "    np.random.seed(0)\n"
            "    return np.random.rand(3) * time.time()\n"
        )
        findings = by_rule(lint(source, "src/repro/data/foo.py"), "determinism")
        assert len(findings) == 3

    def test_flags_stdlib_random(self):
        source = "import random\nvalue = random.random()\n"
        assert by_rule(lint(source, "src/repro/data/foo.py"), "determinism")


class TestConcurrency:
    BAD_CLASS = (
        "class Registry:\n"
        "    def __init__(self):\n"
        "        self._entries = {}\n"
        "    def register(self, name, entry):\n"
        "        self._entries[name] = entry\n"
    )

    def test_flags_unlocked_class_state_in_serve(self):
        findings = by_rule(
            lint(self.BAD_CLASS, "src/repro/serve/registry.py"), "concurrency"
        )
        assert len(findings) == 1
        assert "owns no threading lock" in findings[0].message

    def test_untreaded_packages_are_exempt(self):
        assert not lint(self.BAD_CLASS, "src/repro/analysis/foo.py")

    def test_locked_mutation_passes(self):
        source = (
            "from repro import forksafe\n"
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self._lock = forksafe.RLock()\n"
            "        self._entries = {}\n"
            "    def register(self, name, entry):\n"
            "        with self._lock:\n"
            "            self._entries[name] = entry\n"
        )
        assert not by_rule(
            lint(source, "src/repro/serve/registry.py"), "concurrency"
        )

    def test_mutation_outside_lock_names_the_lock(self):
        source = (
            "from repro import forksafe\n"
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self._lock = forksafe.Lock()\n"
            "        self._entries = {}\n"
            "    def register(self, name, entry):\n"
            "        self._entries[name] = entry\n"
        )
        findings = by_rule(
            lint(source, "src/repro/serve/registry.py"), "concurrency"
        )
        assert len(findings) == 1
        assert "self._lock" in findings[0].message

    def test_flags_bare_acquire(self):
        source = (
            "from repro import forksafe\n"
            "LOCK = forksafe.Lock()\n"
            "def touch():\n"
            "    LOCK.acquire()\n"
            "    LOCK.release()\n"
        )
        findings = by_rule(
            lint(source, "src/repro/obs/foo.py"), "concurrency"
        )
        assert len(findings) == 1

    @pytest.mark.parametrize(
        "source",
        [
            # a module-level lock
            "import threading\nLOCK = threading.RLock()\n",
            # a lock or thread-local on an attribute
            "import threading\n"
            "class Tracer:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n",
            "import threading\n"
            "class Tracer:\n"
            "    def __init__(self):\n"
            "        self._local = threading.local()\n",
            # a dataclass field
            "import threading\n"
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Registry:\n"
            "    _lock: object = field(default_factory=threading.RLock)\n",
            # an import that hides the module name
            "from threading import Condition\nCOND = Condition()\n",
            "import threading\nGATE = threading.BoundedSemaphore(2)\n",
        ],
    )
    def test_flags_threading_primitives_built_directly(self, source):
        (finding,) = by_rule(
            lint(source, "src/repro/serve/foo.py"), "concurrency"
        )
        assert "repro.forksafe" in finding.message

    def test_factory_locks_and_thread_locals_pass(self):
        source = (
            "from dataclasses import dataclass, field\n"
            "from repro import forksafe\n"
            "LOCK = forksafe.RLock()\n"
            "@dataclass\n"
            "class Registry:\n"
            "    _entries: dict = field(default_factory=dict)\n"
            "    _lock: object = field(default_factory=forksafe.RLock)\n"
            "    def register(self, name, entry):\n"
            "        with self._lock:\n"
            "            self._entries[name] = entry\n"
            "class Tracer:\n"
            "    def __init__(self):\n"
            "        self._local = forksafe.local()\n"
        )
        assert not by_rule(lint(source, "src/repro/obs/foo.py"), "concurrency")

    def test_threading_outside_the_threaded_packages_is_exempt(self):
        source = "import threading\nLOCK = threading.Lock()\n"
        assert not lint(source, "src/repro/flows/foo.py")

    def test_flags_module_global_mutation(self):
        source = (
            "CACHE = {}\n"
            "def put(key, value):\n"
            "    CACHE[key] = value\n"
        )
        assert by_rule(lint(source, "src/repro/api/foo.py"), "concurrency")

    def test_pool_module_is_covered(self):
        # repro.serve.pool serves forked traffic; the rule must watch it
        assert by_rule(
            lint(self.BAD_CLASS, "src/repro/serve/pool.py"), "concurrency"
        )

    def test_flags_direct_metric_value_mutation(self):
        source = (
            "from repro import obs\n"
            "def bump():\n"
            "    c = obs.registry().counter('requests_total')\n"
            "    c.value += 1\n"
        )
        findings = by_rule(
            lint(source, "src/repro/serve/handlers.py"), "concurrency"
        )
        assert len(findings) == 1
        assert findings[0].line == 4
        assert "obs.inc()" in findings[0].message

    def test_flags_chained_metric_value_mutation(self):
        source = (
            "from repro import obs\n"
            "def bump(reg):\n"
            "    reg.gauge('depth').value = 3\n"
        )
        # fires even outside the threaded packages: metric objects are
        # shared wherever the registry they came from is shared
        assert by_rule(
            lint(source, "src/repro/analysis/foo.py"), "concurrency"
        )

    def test_locked_metric_value_mutation_passes(self):
        source = (
            "from repro import obs\n"
            "def bump(reg):\n"
            "    c = reg.counter('requests_total')\n"
            "    with reg._lock:\n"
            "        c.value += 1\n"
        )
        assert not by_rule(
            lint(source, "src/repro/serve/handlers.py"), "concurrency"
        )

    def test_metric_value_reads_pass(self):
        source = (
            "def peek(reg):\n"
            "    c = reg.counter('requests_total')\n"
            "    return c.value\n"
        )
        assert not by_rule(
            lint(source, "src/repro/serve/handlers.py"), "concurrency"
        )

    def test_obs_package_is_exempt_from_metric_check(self):
        source = (
            "def bump(self, amount):\n"
            "    counter = self.counter('x_total')\n"
            "    counter.value += amount\n"
        )
        assert not by_rule(
            lint(source, "src/repro/obs/metrics.py"), "concurrency"
        )

    def test_multiprocessing_locks_are_recognised(self):
        source = (
            "import multiprocessing\n"
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self._lock = multiprocessing.Lock()\n"
            "        self._workers = []\n"
            "    def adopt(self, worker):\n"
            "        with self._lock:\n"
            "            self._workers.append(worker)\n"
        )
        assert not by_rule(
            lint(source, "src/repro/serve/pool.py"), "concurrency"
        )


class TestApiSurface:
    def test_flags_unresolvable_export(self):
        source = "__all__ = ['present', 'missing']\npresent = 1\n"
        findings = by_rule(lint(source, "src/repro/api/foo.py"), "api-surface")
        assert len(findings) == 1
        assert "'missing'" in findings[0].message

    def test_flags_lazy_key_missing_from_all(self):
        source = (
            "__all__ = ['A']\n"
            "_EXPORTS = {'A': 'mod_a', 'B': 'mod_b'}\n"
            "def __getattr__(name):\n"
            "    return _EXPORTS[name]\n"
        )
        findings = by_rule(lint(source, "src/repro/api/foo.py"), "api-surface")
        assert len(findings) == 1
        assert "'B'" in findings[0].message

    def test_lazy_exports_resolve_through_table(self):
        source = (
            "__all__ = ['A', 'B']\n"
            "_EXPORTS = {'A': 'mod_a', 'B': 'mod_b'}\n"
            "def __getattr__(name):\n"
            "    return _EXPORTS[name]\n"
        )
        assert not lint(source, "src/repro/api/foo.py")

    def test_flags_duplicates(self):
        source = "__all__ = ['x', 'x']\nx = 1\n"
        assert by_rule(lint(source, "src/repro/api/foo.py"), "api-surface")


class TestEngine:
    def test_syntax_error_raises(self):
        with pytest.raises(StaticCheckError, match="cannot parse"):
            lint("def broken(:\n", "src/repro/foo.py")

    def test_select_rules_unknown_name(self):
        with pytest.raises(StaticCheckError, match="unknown rule"):
            select_rules(["no-such-rule"])

    def test_rule_subset_only_runs_selected(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
            "x = np.zeros(3, dtype=np.float64)\n"
        )
        findings = lint(
            source, "src/repro/data/foo.py", rules=select_rules(["determinism"])
        )
        assert {f.rule for f in findings} == {"determinism"}
