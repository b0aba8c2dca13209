"""Content fingerprints for circuits and fitted feature scalers.

Both the serving :class:`~repro.serve.cache.GraphCache` and the training
:class:`~repro.flows.runtime.MergedInputsCache` need to recognise "the same
data" across object identities: a netlist parsed twice must hit the same
cache entry, and a merged training batch must never be served to a
differently-composed record set.  These helpers hash *content* — circuit
connectivity and device parameters, scaler statistics — not ``id()``.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuits.netlist import Circuit
    from repro.data.dataset import CircuitRecord
    from repro.data.normalize import FeatureScaler


def circuit_fingerprint(circuit: "Circuit") -> str:
    """Stable content hash of a circuit (name, nets, instances, params).

    Two circuits that serialise identically — e.g. the same netlist parsed
    twice — share a fingerprint; any change to connectivity or device
    parameters changes it.

    The hashed text is the circuit name, ``|ports|`` and each port
    followed by ``;``, ``|nets|`` and each net name (sorted) followed by
    ``;``, then ``|instances|`` and, per instance sorted by name,
    ``name:device_type``, ``|terminal=net`` per terminal and
    ``|PARAM=repr(value)`` per parameter (both sorted), and ``;``.  It is
    assembled as one string and hashed once.
    """
    parts = [circuit.name, "|ports|"]
    for port in circuit.ports:
        parts.append(f"{port};")
    parts.append("|nets|")
    for net in sorted(net.name for net in circuit.nets()):
        parts.append(f"{net};")
    parts.append("|instances|")
    for name in sorted(inst.name for inst in circuit.instances()):
        inst = circuit.instance(name)
        parts.append(f"{inst.name}:{inst.device_type}")
        for terminal in sorted(inst.conns):
            parts.append(f"|{terminal}={inst.conns[terminal]}")
        for param in sorted(inst.params):
            parts.append(f"|{param}={inst.params[param]!r}")
        parts.append(";")
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def scaler_fingerprint(scaler: "FeatureScaler") -> str:
    """Content hash of a fitted feature scaler (memoised on the object)."""
    cached = getattr(scaler, "_content_fingerprint", None)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    for type_name in sorted(scaler.means):
        hasher.update(type_name.encode())
        hasher.update(scaler.means[type_name].tobytes())
        hasher.update(scaler.stds[type_name].tobytes())
    digest = hasher.hexdigest()
    try:
        scaler._content_fingerprint = digest
    except AttributeError:  # exotic scaler without a __dict__: recompute
        pass
    return digest


def record_fingerprint(record: "CircuitRecord") -> str:
    """Circuit content hash of a dataset record (memoised on the record)."""
    cached = getattr(record, "_content_fingerprint", None)
    if cached is not None:
        return cached
    digest = circuit_fingerprint(record.circuit)
    record._content_fingerprint = digest
    return digest
