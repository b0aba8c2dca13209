"""Dataset caching: persist a built bundle to disk and reload it.

Bundle construction is cheap at small scales but grows with
``dataset_scale``; caching also pins the exact dataset used by a paper run
for later inspection.  Circuits are stored as SPICE text, targets and
feature-scaler state as ``.npz`` arrays.  Names are stored as unicode
arrays and every archive is loaded with ``allow_pickle=False``: a
bundle directory is data, and loading one must never run code.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.circuits.spice import read_spice, write_spice
from repro.data.dataset import CircuitRecord, DatasetBundle
from repro.data.normalize import FeatureScaler
from repro.errors import DatasetError
from repro.graph.builder import build_graph
from repro.layout.synthesizer import DeviceTargets, LayoutResult


def _save_record(directory: str, record: CircuitRecord) -> None:
    spice_text = write_spice(record.circuit)
    with open(os.path.join(directory, f"{record.name}.sp"), "w") as handle:
        handle.write(spice_text)
    # The SPICE writer prepends element letters to names that lack them;
    # store device targets under the post-roundtrip names so the reloaded
    # circuit's instances match.  Writer and reader preserve order 1:1.
    reparsed = read_spice(spice_text, name=record.name)
    rename = {
        original.name: twin.name
        for original, twin in zip(record.circuit.instances(), reparsed.instances())
    }
    layout = record.layout
    device_names = sorted(rename[n] for n in layout.device_params)
    inverse = {rename[n]: n for n in layout.device_params}
    arrays: dict[str, np.ndarray] = {
        "net_names": np.array(sorted(layout.net_caps), dtype=str),
        "net_caps": np.array([layout.net_caps[n] for n in sorted(layout.net_caps)]),
        "net_res": np.array(
            [layout.net_res.get(n, 0.0) for n in sorted(layout.net_caps)]
        ),
        "device_names": np.array(device_names, dtype=str),
        "device_values": np.array(
            [
                list(layout.device_params[inverse[n]].as_dict().values())
                for n in device_names
            ]
        ).reshape(len(layout.device_params), -1),
    }
    np.savez(os.path.join(directory, f"{record.name}.targets.npz"), **arrays)


def _names(archive, key: str) -> list[str]:
    array = archive[key]
    if array.dtype.kind != "U":
        raise ValueError(f"{key!r} holds {array.dtype} values, not text")
    return array.tolist()


def _load_record(directory: str, name: str) -> CircuitRecord:
    with open(os.path.join(directory, f"{name}.sp")) as handle:
        circuit = read_spice(handle, name=name)
    path = os.path.join(directory, f"{name}.targets.npz")
    try:
        with np.load(path, allow_pickle=False) as archive:
            net_names = _names(archive, "net_names")
            net_caps = dict(zip(net_names, archive["net_caps"].tolist()))
            net_res = dict(zip(net_names, archive["net_res"].tolist()))
            device_names = _names(archive, "device_names")
            device_params = {}
            for row, device in enumerate(device_names):
                values = archive["device_values"][row]
                device_params[device] = DeviceTargets(
                    lde=list(values[:8]),
                    sa=float(values[8]),
                    da=float(values[9]),
                    sp=float(values[10]),
                    dp=float(values[11]),
                )
    except ValueError as error:
        # object arrays (the old format, or a crafted file) refuse to load
        raise DatasetError(
            f"cannot load {path}: {error}; rebuild the dataset cache "
            "(files written before names were stored as text need it)"
        ) from error
    layout = LayoutResult(
        circuit_name=name,
        net_caps=net_caps,
        device_params=device_params,
        placement=None,  # geometry provenance is not persisted
        net_res=net_res,
    )
    return CircuitRecord(
        name=name, circuit=circuit, graph=build_graph(circuit), layout=layout
    )


def save_bundle(bundle: DatasetBundle, directory: str | os.PathLike) -> None:
    """Persist a bundle to *directory* (created if needed)."""
    directory = str(directory)
    for split in ("train", "test"):
        split_dir = os.path.join(directory, split)
        os.makedirs(split_dir, exist_ok=True)
        for record in bundle.records(split):
            _save_record(split_dir, record)
    scaler_arrays = {}
    for type_name, mean in bundle.scaler.means.items():
        scaler_arrays[f"mean/{type_name}"] = mean
        scaler_arrays[f"std/{type_name}"] = bundle.scaler.stds[type_name]
    np.savez(os.path.join(directory, "scaler.npz"), **scaler_arrays)
    with open(os.path.join(directory, "meta.json"), "w") as handle:
        json.dump({"seed": bundle.seed, "scale": bundle.scale}, handle)


def load_bundle_from_cache(directory: str | os.PathLike) -> DatasetBundle:
    """Reload a bundle saved by :func:`save_bundle`.

    Raises
    ------
    DatasetError
        If the directory does not look like a saved bundle.
    """
    directory = str(directory)
    meta_path = os.path.join(directory, "meta.json")
    if not os.path.exists(meta_path):
        raise DatasetError(f"{directory!r} is not a saved dataset bundle")
    with open(meta_path) as handle:
        meta = json.load(handle)

    def load_split(split: str) -> dict[str, CircuitRecord]:
        split_dir = os.path.join(directory, split)
        records = {}
        for entry in sorted(os.listdir(split_dir)):
            if entry.endswith(".sp"):
                name = entry[:-3]
                records[name] = _load_record(split_dir, name)
        return records

    scaler = FeatureScaler()
    with np.load(os.path.join(directory, "scaler.npz")) as archive:
        for key in archive.files:
            kind, type_name = key.split("/", 1)
            if kind == "mean":
                scaler.means[type_name] = archive[key]
            else:
                scaler.stds[type_name] = archive[key]

    return DatasetBundle(
        train=load_split("train"),
        test=load_split("test"),
        scaler=scaler,
        seed=int(meta["seed"]),
        scale=float(meta["scale"]),
    )
