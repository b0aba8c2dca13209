"""The one-pass front end against its per-item oracle (``frontend_oracle``).

``read_spice`` (with ``Circuit.add_instance``), ``circuit_fingerprint``
and ``build_graph`` must give what the replaced code gave: the same
circuit (net, instance, terminal and parameter order, value types), the
same digest and the same graph (dict order and dtypes), or the same
exception type, message and line number.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import devices as dev
from repro.circuits.generators.chip import TEST_RECIPES, TRAIN_RECIPES, compose_chip
from repro.circuits.netlist import Circuit
from repro.circuits.spice import read_spice, write_spice
from repro.data.fingerprint import circuit_fingerprint
from repro.graph.builder import build_graph
from tests.circuits import frontend_oracle as oracle


def _outcome(fn, *args):
    """``("ok", result)`` or the exception's type, message and line number."""
    try:
        return "ok", fn(*args)
    except Exception as error:  # noqa: BLE001 - every exception is compared
        return "error", (type(error), str(error), getattr(error, "line_no", None))


def _error(fn, *args):
    """The exception ``fn(*args)`` raises, as :func:`_outcome` words it."""
    kind, result = _outcome(fn, *args)
    return result if kind == "error" else None


def _assert_same_front_end(new: Circuit, reference: Circuit) -> None:
    """Same circuit, then the same digest and graph (or graph error)."""
    assert oracle.circuit_state(new) == oracle.circuit_state(reference)
    assert _outcome(circuit_fingerprint, new) == _outcome(
        oracle.circuit_fingerprint, reference
    )
    built = _outcome(build_graph, new)
    expected = _outcome(oracle.build_graph, reference)
    if built[0] == "ok" and expected[0] == "ok":
        assert oracle.graph_state(built[1]) == oracle.graph_state(expected[1])
    else:
        assert built == expected


# ----------------------------------------------------------------------
# In-memory circuits
# ----------------------------------------------------------------------
_NETS = ["in", "out", "mid", "fb", "bias", "n/1", "vdd", "vss", "0", "gnd", "VDD_A"]
_KEYS = ["L", "NF", "NFIN", "MULTI", "TYPE", "R", "C", "POLARITY", "ONE", "W"]
#: value objects reused across instances (one object per repeated value,
#: as the reader shares them), equal values as distinct objects, and
#: values equal in value but not in repr: 0.0/-0.0, 1/1.0/True
_VALUES = [
    0.0, -0.0, 1, 1.0, True, 2, 2.0, 16e-9, 1.6e-08, 150e-9, 1e3,
    float("nan"), float("inf"), -float("inf"),
    np.float64(2.0), np.float32(0.5), np.int64(3), 10**20,
    *[float(text) for text in ("1.5", "1.5", "-0.0")],
]


@st.composite
def _instance_args(draw, index):
    device_type = draw(st.sampled_from([*dev.DEVICE_TYPES, "bogus"]))
    terminals = list(dev.DEVICE_SPECS.get(device_type, dev.DEVICE_SPECS["bjt"]).terminals)
    terminals = draw(st.permutations(terminals))
    shape = draw(st.sampled_from(["ok"] * 8 + ["missing", "extra"]))
    if shape == "missing":
        terminals = terminals[1:]
    elif shape == "extra":
        terminals = [*terminals, "foo"]
    conns = {t: draw(st.sampled_from(_NETS)) for t in terminals}
    params = draw(st.dictionaries(st.sampled_from(_KEYS), st.sampled_from(_VALUES), max_size=5))
    name = draw(st.sampled_from([f"x{index}", f"x{index}", "dup"]))
    return name, device_type, conns, params or draw(st.sampled_from([None, {}]))


@st.composite
def _circuit_ops(draw):
    ports = draw(st.lists(st.sampled_from(_NETS), max_size=3))
    count = draw(st.integers(0, 10))
    return ports, [draw(_instance_args(index)) for index in range(count)]


def _build_both(ports, ops):
    """Apply the same add_instance calls to a circuit and to the oracle's."""
    new, reference = Circuit("mem", ports=ports), Circuit("mem", ports=ports)
    for args in ops:
        assert _error(new.add_instance, *args) == _error(
            oracle.add_instance, reference, *args
        )
        assert oracle.circuit_state(new) == oracle.circuit_state(reference)
    return new, reference


@settings(max_examples=150, deadline=None)
@given(spec=_circuit_ops())
def test_in_memory_circuits_match_the_oracle(spec):
    new, reference = _build_both(*spec)
    _assert_same_front_end(new, reference)
    # a circuit's copy and the fingerprint of one object both ways
    _assert_same_front_end(new.copy(), reference)
    assert circuit_fingerprint(new) == oracle.circuit_fingerprint(new)


@settings(max_examples=60, deadline=None)
@given(child=_circuit_ops(), parent=_circuit_ops(), data=st.data())
def test_embed_matches_the_oracle(child, parent, data):
    child_new, child_ref = _build_both(*child)
    new, reference = _build_both(*parent)
    port_map = data.draw(st.dictionaries(
        st.sampled_from([*child_new.ports, "stray"]), st.sampled_from(_NETS), max_size=4
    ))
    assert _error(new.embed, child_new, "u1", port_map) == _error(
        oracle.embed, reference, child_ref, "u1", port_map
    )
    _assert_same_front_end(new, reference)


# ----------------------------------------------------------------------
# Hostile SPICE text
# ----------------------------------------------------------------------
#: nets, supplies among them, and tokens with "=" that are not parameters
_TEXT_NETS = ["a", "b", "out", "in", "n1", "vdd", "VSS", "0", "gnd", "=a", "a=", "1a=2"]
_MODELS = ["nch", "PCH", "nch_hv", "pch_hv", "dio", "npn", "PNP"]
_PARAMS = [
    "L=16n", "l=16n", "L=32n", "NF=2", "nf=3", "NFIN=4", "MULTI=1", "L=-0",
    "L=0.0", "W=10pF", "R=2meg", "C=1e-15", "L=.5u", "NF=5.", "_a=1",
    "L=+3", "TYPE=-1", "POLARITY=1", "L=1.6e-08", "M=1MEG", "NF=2Hz", "NF=5x",
]
_VALUES_TEXT = ["10k", "25f", "-0", "2meg", "5x", "1e3"]
#: tokens that fail to parse, or fail as a card's model or value
_BAD = ["L=1..2", "L=inf", "L=nan", "K=1e", "L=1q", "NF=2ff", "X==3", "x=y=z",
        "1..2", "inf", "nan", "abc", "bogus"]
#: element letter -> nets on a well-formed card, and its model tokens
_CARDS = {
    "M": (4, _MODELS[:4]), "R": (2, []), "C": (2, []), "D": (2, ["dio"]),
    "Q": (3, ["npn", "PNP"]), "X": (2, ["inv"]),
}


def _pick(draw, pool, strict):
    """A token from *pool*, or now and then a bad one unless *strict*."""
    if not strict and draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(_BAD))
    return draw(st.sampled_from(pool))


def _card(draw, strict, letters=(*_CARDS, "L", "V")):
    letter = draw(st.sampled_from(letters))
    head = draw(st.sampled_from([letter, letter.lower()])) + draw(
        st.sampled_from([*"123456789ab", "_x"] if strict else ["", "1", "2", "a"])
    )
    if not strict and draw(st.integers(0, 5)) == 0:  # any tokens at all
        pool = _TEXT_NETS + _MODELS + _PARAMS + _VALUES_TEXT + _BAD + ["inv"]
        return " ".join([head, *draw(st.lists(st.sampled_from(pool), max_size=7))])
    arity, models = _CARDS.get(letter, (2, []))
    if not strict:
        arity += draw(st.sampled_from([0] * 4 + [-1, 1]))
    tokens = [_pick(draw, _TEXT_NETS, strict) for _ in range(arity)]
    if models:
        tokens.append(_pick(draw, models, strict))
    elif draw(st.booleans()):
        tokens.append(_pick(draw, _VALUES_TEXT, strict))
    params = [_pick(draw, _PARAMS, strict) for _ in range(draw(st.integers(0, 4)))]
    cut = draw(st.integers(0, len(params)))
    return " ".join([head, *tokens[:cut], *params, *tokens[cut:]])


def _line(draw, strict, letters=(*_CARDS, "L", "V")):
    kinds = ["card"] * 8 + ["cont", "cont", "comment", "blank", "dot"]
    if not strict:
        kinds += ["subckt", "ends"]
    kind = draw(st.sampled_from(kinds))
    if kind == "card":
        line = _card(draw, strict, letters)
    elif kind == "cont":
        pieces = [_pick(draw, _PARAMS, strict) for _ in range(draw(st.integers(0, 3)))]
        line = "+ " + " ".join(pieces)
    elif kind == "comment":
        line = "* " + draw(st.sampled_from(_PARAMS + _BAD))
    elif kind == "blank":
        line = draw(st.sampled_from(["", "   ", "\t", "; only a comment"]))
    elif kind == "subckt":
        name = draw(st.sampled_from(["inv", "buf"] if strict else ["inv", "buf", ""]))
        ports = draw(st.lists(st.sampled_from(["a", "b", "vdd", "a"]), min_size=2, max_size=2))
        line = " ".join([draw(st.sampled_from([".subckt", ".SUBCKT"])), name, *ports])
    elif kind == "ends":
        line = draw(st.sampled_from([".ends", ".ENDS inv"]))
    else:
        ends = [".endfoo", ".end"] if not strict else []
        line = draw(st.sampled_from([".option scale=1", ".include x", *ends]))
    if draw(st.booleans()):
        line = draw(st.sampled_from(["  ", "\t"])) + line
    if draw(st.integers(0, 5)) == 0:
        line += " ; trailing " + draw(st.sampled_from(_BAD))
    return line


@st.composite
def hostile_spice(draw):
    """SPICE text: well-formed cards with odd spellings, or, half the
    time, with bad values, arities, letters and orphan ``+`` lines too."""
    strict = draw(st.booleans())
    if not strict:
        lines = [_line(draw, False) for _ in range(draw(st.integers(0, 24)))]
    else:
        devices = [letter for letter in _CARDS if letter != "X"]
        lines = []
        if draw(st.booleans()):  # a subcircuit, instantiated below
            lines.append(draw(st.sampled_from([".subckt inv a b", ".SUBCKT inv a vdd"])))
            lines += [_line(draw, True, devices) for _ in range(draw(st.integers(1, 4)))]
            lines.append(".ends")
            if draw(st.booleans()):  # defined inside another that calls it
                lines = [".subckt outer a b", *lines, "Xi a b inv", ".ends", "Xo n1 out outer"]
            devices.append("X")
        lines.append(_card(draw, True, devices))
        lines += [_line(draw, True, devices) for _ in range(draw(st.integers(0, 16)))]
        if draw(st.booleans()):
            lines.append(".end")
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@settings(max_examples=400, deadline=None)
@given(text=hostile_spice())
def test_hostile_spice_text_matches_the_oracle(text):
    parsed = _outcome(read_spice, text, "hostile")
    expected = _outcome(oracle.read_spice, text, "hostile")
    if parsed[0] == "ok" and expected[0] == "ok":
        _assert_same_front_end(parsed[1], expected[1])
    else:
        assert parsed == expected


def test_unencodable_names_fail_the_digest_alike():
    """A lone surrogate in an in-memory name cannot be hashed as UTF-8;
    the reader refuses one in text (``test_spice``)."""
    circuit = Circuit("s")
    circuit.add_instance("R1", dev.RESISTOR, {"p": "in\ud800x", "n": "out"}, {"R": 1e3})
    for fingerprint in (circuit_fingerprint, oracle.circuit_fingerprint):
        kind, error = _outcome(fingerprint, circuit)
        assert kind == "error" and error[0] is UnicodeEncodeError


def test_lone_surrogates_in_comments_parse_like_text():
    text = "* \ud800\nM1 out in vss vss nch L=16n ; \udcff\n.end \ud800\n"
    assert oracle.circuit_state(read_spice(text, name="c")) == (
        oracle.circuit_state(oracle.read_spice(text, name="c"))
    )


def test_file_objects_parse_like_text():
    text = "M1 out in vss vss nch L=16n\n+ NF=2\nR1 out vss 1k\n.end\n"
    assert oracle.circuit_state(read_spice(io.StringIO(text), name="f")) == (
        oracle.circuit_state(oracle.read_spice(text, name="f"))
    )


# ----------------------------------------------------------------------
# Generated circuits, in memory and as re-read text
# ----------------------------------------------------------------------
@pytest.mark.parametrize("recipe", [TRAIN_RECIPES[0], TRAIN_RECIPES[2], TEST_RECIPES[1]],
                         ids=lambda recipe: recipe.name)
def test_generated_circuits_match_the_oracle(recipe):
    circuit = compose_chip(recipe, seed=3, scale=0.3).circuit
    reference = Circuit(circuit.name, circuit.ports)
    for net in circuit.nets():
        reference.add_net(net.name)
    for inst in circuit.instances():
        oracle.add_instance(reference, inst.name, inst.device_type, inst.conns, inst.params)
    _assert_same_front_end(circuit, reference)
    text = write_spice(circuit)
    _assert_same_front_end(
        read_spice(text, name=recipe.name), oracle.read_spice(text, name=recipe.name)
    )
