"""Layout synthesis driver: schematic -> parasitic/parameter ground truth.

This is the library's substitute for the paper's post-layout extraction
flow.  Given a circuit it runs diffusion-sharing analysis, placement,
geometry and LDE computation, routing estimation, and capacitance
extraction, returning every prediction target of paper Table I:

* per-net CAP,
* per-transistor LDE1..8, SA, DA, SP, DP.

All randomness (layout uncertainty) is drawn from streams derived from
``(seed, circuit.name)``, so ground truth is reproducible and *consistent*:
re-synthesising the same circuit yields identical targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.circuits import devices as dev
from repro.circuits.netlist import Circuit
from repro.errors import LayoutError
from repro.layout.geometry import device_geometry
from repro.layout.lde import NUM_LDE, lde_parameters
from repro.layout.mts import DiffusionChain, find_diffusion_chains
from repro.layout.parasitics import extract_capacitances, extract_resistances
from repro.layout.placement import Placement, place_circuit
from repro.layout.routing import all_net_lengths
from repro.layout.tech import DEFAULT_TECH, Technology
from repro.rng import SeedSequenceNamer

#: Device-parameter target names in canonical order (paper Table I).
DEVICE_TARGET_NAMES = tuple(f"LDE{i}" for i in range(1, NUM_LDE + 1)) + (
    "SA",
    "DA",
    "SP",
    "DP",
)


@dataclass
class DeviceTargets:
    """Ground-truth layout parameters for one transistor."""

    lde: list[float]
    sa: float
    da: float
    sp: float
    dp: float

    def as_dict(self) -> dict[str, float]:
        values = {f"LDE{i + 1}": v for i, v in enumerate(self.lde)}
        values.update({"SA": self.sa, "DA": self.da, "SP": self.sp, "DP": self.dp})
        return values

    def value(self, target: str) -> float:
        """One target: ``LDEk`` by index, the rest by field (no dict, as
        dataset building asks once per device per target)."""
        field_name = _SCALAR_TARGETS.get(target)
        if field_name is not None:
            return getattr(self, field_name)
        digits = target[3:] if target.startswith("LDE") else ""
        if digits.isdecimal() and str(int(digits)) == digits:
            index = int(digits)
            if 1 <= index <= len(self.lde):
                return self.lde[index - 1]
        raise LayoutError(f"unknown device target {target!r}")


#: :class:`DeviceTargets` fields of the non-LDE device targets.
_SCALAR_TARGETS = {"SA": "sa", "DA": "da", "SP": "sp", "DP": "dp"}


@dataclass
class LayoutResult:
    """All ground-truth targets extracted from a synthesized layout."""

    circuit_name: str
    net_caps: dict[str, float]
    device_params: dict[str, DeviceTargets]
    placement: Placement
    chains: list[DiffusionChain] = field(default_factory=list)
    net_res: dict[str, float] = field(default_factory=dict)

    def cap_of(self, net_name: str) -> float:
        try:
            return self.net_caps[net_name]
        except KeyError:
            raise LayoutError(
                f"no extracted capacitance for net {net_name!r}"
            ) from None

    def res_of(self, net_name: str) -> float:
        try:
            return self.net_res[net_name]
        except KeyError:
            raise LayoutError(
                f"no extracted resistance for net {net_name!r}"
            ) from None


def synthesize_layout(
    circuit: Circuit,
    seed: int = 0,
    tech: Technology = DEFAULT_TECH,
) -> LayoutResult:
    """Produce the full set of layout targets for *circuit*.

    Raises
    ------
    LayoutError
        If the circuit has no signal nets (nothing to extract).
    """
    if not circuit.signal_nets():
        raise LayoutError(f"circuit {circuit.name!r} has no signal nets")
    namer = SeedSequenceNamer(seed, "layout", circuit.name)

    with obs.span("layout.synthesize", circuit=circuit.name):
        with obs.span("layout.chains"):
            chains = find_diffusion_chains(circuit)
        with obs.span("layout.place"):
            placement = place_circuit(
                circuit, chains, tech, namer.stream("placement")
            )

        device_params: dict[str, DeviceTargets] = {}
        geometry_rng = namer.stream("geometry")
        lde_rng = namer.stream("lde")
        with obs.span("layout.device_params"):
            for chain in chains:
                for link in chain.links:
                    geometry = device_geometry(link, tech)
                    geo_noise = np.exp(
                        geometry_rng.normal(0.0, tech.noise_geometry, size=4)
                    )
                    device_params[link.inst.name] = DeviceTargets(
                        lde=lde_parameters(
                            link, chain, geometry, placement, tech, lde_rng
                        ),
                        sa=geometry.source_area * geo_noise[0],
                        da=geometry.drain_area * geo_noise[1],
                        sp=geometry.source_perimeter * geo_noise[2],
                        dp=geometry.drain_perimeter * geo_noise[3],
                    )

        with obs.span("layout.route"):
            lengths = all_net_lengths(circuit, placement)
        with obs.span("layout.extract"):
            net_caps = extract_capacitances(
                circuit, lengths, tech, namer.stream("parasitics")
            )
            net_res = extract_resistances(
                circuit, lengths, tech, namer.stream("resistance")
            )
    obs.inc("layouts_synthesized_total")
    obs.inc("layout.devices_total", len(device_params))
    return LayoutResult(
        circuit_name=circuit.name,
        net_caps=net_caps,
        device_params=device_params,
        placement=placement,
        chains=chains,
        net_res=net_res,
    )


def transistor_names(circuit: Circuit) -> list[str]:
    """Names of all MOSFET instances (the device-parameter population)."""
    return [
        inst.name for inst in circuit.instances() if dev.is_mos(inst.device_type)
    ]
