"""Circuit netlist data model.

A :class:`Circuit` is a flat schematic: named nets plus device instances
whose terminals connect to nets.  Hierarchy is supported through
:meth:`Circuit.embed`, which flattens a child circuit into the parent with
prefixed names — the form every downstream consumer (graph builder, layout
synthesizer, simulator) works on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.circuits.devices import DEVICE_TYPES, spec_for
from repro.errors import NetlistError

#: Net-name patterns treated as power/ground rails (paper §II-B drops them
#: from the graph: "Connections to supply and ground nets are ignored").
_SUPPLY_RE = re.compile(
    r"^(?:0|(?:[ad]?(?:vdd|vss|vcc|vee)|gnd|vpwr|vgnd|vddio|vbat)[a-z0-9_]*)$",
    re.IGNORECASE,
)


def is_supply_name(net_name: str) -> bool:
    """True when *net_name* looks like a supply/ground rail.

    The heuristic mirrors industrial naming conventions; composed circuits
    built by :mod:`repro.circuits.generators` always use matching names.
    """
    local = net_name.rsplit("/", 1)[-1]
    return bool(_SUPPLY_RE.match(local))


@dataclass
class Net:
    """A single electrical net."""

    name: str

    @property
    def is_supply(self) -> bool:
        return is_supply_name(self.name)


@dataclass
class Instance:
    """A device instance.

    Attributes
    ----------
    name:
        Unique instance name inside the circuit.
    device_type:
        Canonical type name from :mod:`repro.circuits.devices`.
    conns:
        Mapping ``terminal -> net name``; must cover the device's terminals.
    params:
        Device parameters (``L``, ``NF``, ``NFIN``, ``MULTI``, ``TYPE``...).
    """

    name: str
    device_type: str
    conns: dict[str, str]
    params: dict[str, float] = field(default_factory=dict)

    def param(self, name: str, default: float | None = None) -> float:
        """Return a parameter with spec defaults applied."""
        if name in self.params:
            return float(self.params[name])
        spec = spec_for(self.device_type)
        if name in spec.default_params:
            return float(spec.default_params[name])
        if default is not None:
            return float(default)
        raise NetlistError(f"instance {self.name!r} has no parameter {name!r}")

    def net_of(self, terminal: str) -> str:
        """Return the net name connected to *terminal*."""
        try:
            return self.conns[terminal]
        except KeyError:
            raise NetlistError(
                f"instance {self.name!r} has no terminal {terminal!r}"
            ) from None


class Circuit:
    """A flat schematic netlist.

    Parameters
    ----------
    name:
        Circuit name, used in reports and as a hierarchy prefix.
    ports:
        Optional ordered list of externally visible net names, used when this
        circuit is embedded into a parent.
    """

    def __init__(self, name: str, ports: Iterable[str] = ()):
        self.name = name
        self.ports: list[str] = list(ports)
        self._nets: dict[str, Net] = {}
        self._instances: dict[str, Instance] = {}
        #: net name -> (instance, terminal) pins, in instance insertion and
        #: terminal order; written only by add_instance
        self._pins: dict[str, list[tuple[Instance, str]]] = {}
        for port in self.ports:
            self.add_net(port)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_net(self, name: str) -> Net:
        """Add (or return an existing) net."""
        if name not in self._nets:
            self._nets[name] = Net(name)
        return self._nets[name]

    def add_instance(
        self,
        name: str,
        device_type: str,
        conns: dict[str, str],
        params: dict[str, float] | None = None,
    ) -> Instance:
        """Add a device instance, creating referenced nets as needed.

        Raises
        ------
        NetlistError
            On duplicate instance names or missing terminals.
        """
        if name in self._instances:
            raise NetlistError(f"duplicate instance name {name!r} in {self.name!r}")
        spec = spec_for(device_type)
        missing = [t for t in spec.terminals if t not in conns]
        if missing:
            raise NetlistError(
                f"instance {name!r} of type {device_type!r} missing terminals {missing}"
            )
        extra = [t for t in conns if t not in spec.terminals]
        if extra:
            raise NetlistError(
                f"instance {name!r} of type {device_type!r} has unknown terminals {extra}"
            )
        inst = Instance(name, device_type, dict(conns), dict(params or {}))
        self._instances[name] = inst
        nets, pins = self._nets, self._pins
        for terminal, net_name in inst.conns.items():
            net_pins = pins.get(net_name)
            if net_pins is None:  # the net's first pin; add the net if new
                if net_name not in nets:
                    nets[net_name] = Net(net_name)
                net_pins = pins[net_name] = []
            net_pins.append((inst, terminal))
        return inst

    def embed(
        self,
        child: "Circuit",
        prefix: str,
        port_map: dict[str, str],
    ) -> None:
        """Flatten *child* into this circuit.

        Child ports are connected per *port_map* (child port -> parent net);
        internal child nets and instance names are prefixed with
        ``prefix + "/"``.

        Raises
        ------
        NetlistError
            If *port_map* misses a child port or names a non-port net.
        """
        missing = [p for p in child.ports if p not in port_map]
        if missing:
            raise NetlistError(
                f"embedding {child.name!r}: unmapped ports {missing}"
            )
        unknown = [p for p in port_map if p not in child.ports]
        if unknown:
            raise NetlistError(
                f"embedding {child.name!r}: {unknown} are not ports"
            )

        def map_net(net_name: str) -> str:
            if net_name in port_map:
                return port_map[net_name]
            # Supply rails keep their global identity across hierarchy.
            if is_supply_name(net_name):
                return net_name
            return f"{prefix}/{net_name}"

        for net in child.nets():
            self.add_net(map_net(net.name))
        for inst in child.instances():
            self.add_instance(
                f"{prefix}/{inst.name}",
                inst.device_type,
                {t: map_net(n) for t, n in inst.conns.items()},
                inst.params,
            )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def nets(self) -> Iterator[Net]:
        """Iterate nets in insertion order."""
        return iter(self._nets.values())

    def net(self, name: str) -> Net:
        try:
            return self._nets[name]
        except KeyError:
            raise NetlistError(f"no net {name!r} in circuit {self.name!r}") from None

    def has_net(self, name: str) -> bool:
        return name in self._nets

    def instances(self) -> Iterator[Instance]:
        """Iterate instances in insertion order."""
        return iter(self._instances.values())

    def instance(self, name: str) -> Instance:
        try:
            return self._instances[name]
        except KeyError:
            raise NetlistError(
                f"no instance {name!r} in circuit {self.name!r}"
            ) from None

    @property
    def num_nets(self) -> int:
        return len(self._nets)

    @property
    def num_instances(self) -> int:
        return len(self._instances)

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def instances_on_net(self, net_name: str) -> list[tuple[Instance, str]]:
        """Return ``(instance, terminal)`` pairs attached to a net.

        Ordered by instance insertion, then terminal order, from an index
        kept by :meth:`add_instance`, so one query costs the net's fanout,
        not a scan of every instance.
        """
        return list(self._pins.get(net_name, ()))

    def fanout(self, net_name: str) -> int:
        """Number of device terminals attached to a net (Table II feature N)."""
        return len(self._pins.get(net_name, ()))

    def signal_nets(self) -> list[Net]:
        """Nets excluding supply/ground rails."""
        return [net for net in self._nets.values() if not net.is_supply]

    def device_counts(self) -> dict[str, int]:
        """Instance count per device type (zero-filled, Table IV shape)."""
        counts = {device_type: 0 for device_type in DEVICE_TYPES}
        for inst in self._instances.values():
            counts[inst.device_type] += 1
        return counts

    def stats_row(self) -> dict[str, int]:
        """One Table IV row: ``#net`` plus per-device-type counts."""
        row = {"net": len(self.signal_nets())}
        row.update(self.device_counts())
        return row

    def copy(self, name: str | None = None) -> "Circuit":
        """Deep-copy the circuit (fresh Net/Instance objects)."""
        dup = Circuit(name or self.name, self.ports)
        for net in self.nets():
            dup.add_net(net.name)
        for inst in self.instances():
            dup.add_instance(inst.name, inst.device_type, inst.conns, inst.params)
        return dup

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit({self.name!r}, nets={self.num_nets}, "
            f"instances={self.num_instances})"
        )
