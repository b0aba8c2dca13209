"""Pre-layout report generation.

Produces the designer-facing artefact of the paper's flow: for a schematic,
a text report of predicted net parasitics (with the designer heuristic for
comparison) and predicted per-transistor layout parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuits.netlist import Circuit
from repro.flows.training import MultiTargetModel
from repro.layout.estimator import designer_estimate
from repro.analysis.tables import render_table
from repro.units import format_eng


@dataclass
class PrelayoutReport:
    """Structured pre-layout predictions for one circuit."""

    circuit_name: str
    net_rows: list[dict] = field(default_factory=list)
    device_rows: list[dict] = field(default_factory=list)
    targets: tuple[str, ...] = ()

    def render(self) -> str:
        sections = [f"Pre-layout prediction report: {self.circuit_name}"]
        if self.net_rows:
            headers = ["net", "predicted CAP", "designer CAP"]
            if any("RES" in row for row in self.net_rows):
                headers.append("predicted RES")
            body = []
            for row in self.net_rows:
                line = [
                    row["net"],
                    format_eng(row["CAP"], "F"),
                    format_eng(row["designer"], "F"),
                ]
                if "RES" in row:
                    line.append(format_eng(row["RES"], "Ohm"))
                body.append(line)
            sections.append(render_table(headers, body, title="Net parasitics"))
        if self.device_rows:
            device_targets = [t for t in self.targets if t not in ("CAP", "RES")]
            headers = ["device", *device_targets]
            body = [
                [row["device"], *[format_eng(row[t]) for t in device_targets]]
                for row in self.device_rows
            ]
            sections.append(render_table(headers, body, title="Device parameters"))
        return "\n\n".join(sections)


def prelayout_report(
    circuit: Circuit, model: MultiTargetModel
) -> PrelayoutReport:
    """Build a :class:`PrelayoutReport` from a trained multi-target model."""
    from repro.api import predict_one

    result = predict_one(model, circuit)
    predictions = {name: result.named(name) for name in model.predictors}
    targets = tuple(predictions)
    report = PrelayoutReport(circuit_name=circuit.name, targets=targets)

    designer = designer_estimate(circuit)
    if "CAP" in predictions:
        for net in sorted(predictions["CAP"]):
            row = {
                "net": net,
                "CAP": predictions["CAP"][net],
                "designer": designer[net],
            }
            if "RES" in predictions:
                row["RES"] = predictions["RES"][net]
            report.net_rows.append(row)

    device_targets = [t for t in targets if t not in ("CAP", "RES")]
    if device_targets:
        devices = sorted(predictions[device_targets[0]])
        for device in devices:
            row = {"device": device}
            for target in device_targets:
                row[target] = predictions[target][device]
            report.device_rows.append(row)
    return report
