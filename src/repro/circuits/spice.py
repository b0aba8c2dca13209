"""SPICE-subset netlist reader and writer.

Supports the element cards the dataset uses — ``M`` (MOSFET), ``R``, ``C``,
``D``, ``Q`` (BJT) — plus ``.subckt``/``.ends`` definitions and ``X``
subcircuit instantiations (flattened on read), comments, and ``+``
continuation lines.  Values accept engineering suffixes (``16n``, ``4.5f``).

Model-name conventions map SPICE models to the device taxonomy:

========  ==============================  ======
model     device type                     TYPE
========  ==============================  ======
nch       transistor                      +1
pch       transistor                      -1
nch_hv    transistor_thickgate            +1
pch_hv    transistor_thickgate            -1
dio       diode
npn/pnp   bjt
========  ==============================  ======
"""

from __future__ import annotations

import io
import re
from typing import Iterable, TextIO

from repro.circuits import devices as dev
from repro.circuits.netlist import Circuit
from repro.errors import SpiceSyntaxError
from repro.units import format_eng, parse_value

#: SPICE model name -> (device type, TYPE parameter or None).
MODEL_MAP: dict[str, tuple[str, float | None]] = {
    "nch": (dev.TRANSISTOR, dev.NMOS),
    "pch": (dev.TRANSISTOR, dev.PMOS),
    "nch_hv": (dev.TRANSISTOR_THICKGATE, dev.NMOS),
    "pch_hv": (dev.TRANSISTOR_THICKGATE, dev.PMOS),
    "dio": (dev.DIODE, None),
    "npn": (dev.BJT, None),
    "pnp": (dev.BJT, None),
}

_MOS_MODELS = {
    (dev.TRANSISTOR, dev.NMOS): "nch",
    (dev.TRANSISTOR, dev.PMOS): "pch",
    (dev.TRANSISTOR_THICKGATE, dev.NMOS): "nch_hv",
    (dev.TRANSISTOR_THICKGATE, dev.PMOS): "pch_hv",
}

_PARAM_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)=(\S+)$")


def _require_utf8(text: str, what: str, line_no: int | None = None) -> None:
    """Reject text holding a lone surrogate (a JSON ``\\ud800`` escape
    brings one in): names are hashed as UTF-8, which cannot encode it."""
    try:
        text.encode()
    except UnicodeEncodeError as error:
        raise SpiceSyntaxError(
            f"{what} holds {text[error.start]!r}, which UTF-8 cannot encode", line_no
        ) from None


def _join_continuations(text: str) -> list[tuple[int, str]]:
    """Strip comments, join ``+`` continuations; return (line_no, card) pairs.

    Each card's pieces are collected and joined once, so a card with k
    continuation lines costs O(k), not O(k^2).
    """
    cards: list[tuple[int, list[str]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split(";", 1)[0].strip()
        if not stripped or stripped[0] == "*":
            continue
        if stripped[0] == "+":
            if not cards:
                raise SpiceSyntaxError("continuation line with nothing to continue", line_no)
            cards[-1][1].append(stripped[1:].strip())
        else:
            cards.append((line_no, [stripped]))
    return [(line_no, " ".join(pieces)) for line_no, pieces in cards]


def _split_params(
    tokens: list[str], memo: dict[str, tuple[str, float]]
) -> tuple[list[str], dict[str, float]]:
    """Split card tokens into positional tokens and key=value parameters.

    *memo* maps each ``key=value`` token already parsed during this read
    to its ``(KEY, value)``; cards repeat ``L=16n``, ``NF=2`` and so on.
    A token whose value fails to parse is never stored, so it raises
    wherever it appears.
    """
    positional: list[str] = []
    params: dict[str, float] = {}
    for token in tokens:
        if "=" in token:
            parsed = memo.get(token)
            if parsed is None:
                match = _PARAM_RE.match(token)
                if match is None:
                    positional.append(token)
                    continue
                parsed = memo[token] = (
                    match.group(1).upper(), parse_value(match.group(2))
                )
            params[parsed[0]] = parsed[1]
        else:
            positional.append(token)
    return positional, params


class SpiceReader:
    """Parses SPICE text into flat :class:`Circuit` objects."""

    def __init__(self):
        self.subckts: dict[str, Circuit] = {}
        #: element letter -> card handler
        self._handlers = {
            "M": self._mosfet,
            "R": self._resistor,
            "C": self._capacitor,
            "D": self._diode,
            "Q": self._bjt,
            "X": self._subckt_call,
        }

    def parse(self, text: str, name: str = "top") -> Circuit:
        """Parse SPICE *text*; top-level cards land in a circuit called *name*.

        Subcircuit instantiations (``X`` cards) are flattened immediately,
        so the result is always a flat netlist.
        """
        if not name.isascii():
            _require_utf8(name, "circuit name")
        top = Circuit(name)
        current = top
        stack: list[Circuit] = []
        memo: dict[str, tuple[str, float]] = {}
        for line_no, card in _join_continuations(text):
            if card[0] != ".":
                self._parse_element(current, card, line_no, memo)
                continue
            lower = card.lower()
            if lower.startswith(".subckt"):
                tokens = card.split()
                if len(tokens) < 2:
                    raise SpiceSyntaxError(".subckt needs a name", line_no)
                sub = Circuit(tokens[1], ports=tokens[2:])
                stack.append(current)
                current = sub
            elif lower.startswith(".ends"):
                if not stack:
                    raise SpiceSyntaxError(".ends without .subckt", line_no)
                self.subckts[current.name] = current
                current = stack.pop()
            elif lower.startswith(".end"):
                break
            # other dot cards (.option, .include, ...) are tolerated
        if stack:
            raise SpiceSyntaxError(f"unterminated .subckt {current.name!r}")
        return top

    # ------------------------------------------------------------------
    def _parse_element(
        self, circuit: Circuit, card: str, line_no: int, memo: dict
    ) -> None:
        if not card.isascii():
            _require_utf8(card, "card", line_no)
        tokens = card.split()
        letter = tokens[0][0].upper()
        # The full card token (letter included) is the instance name, so
        # M1/R1/C1 never collide and writer->reader round trips are stable.
        inst_name = tokens[0]
        if len(inst_name) < 2:
            raise SpiceSyntaxError(f"element card {tokens[0]!r} has no name", line_no)
        rest, params = _split_params(tokens[1:], memo)
        handler = self._handlers.get(letter)
        if handler is None:
            raise SpiceSyntaxError(f"unsupported element letter {letter!r}", line_no)
        handler(circuit, inst_name, rest, params, line_no)

    def _lookup_model(self, model: str, line_no: int) -> tuple[str, float | None]:
        try:
            return MODEL_MAP[model.lower()]
        except KeyError:
            raise SpiceSyntaxError(f"unknown model {model!r}", line_no) from None

    # The handlers own *params* (a fresh dict per card); add_instance
    # copies it once.
    def _mosfet(self, circuit, name, rest, params, line_no):
        if len(rest) != 5:
            raise SpiceSyntaxError(
                f"MOSFET {name!r} needs 4 nets + model, got {rest}", line_no
            )
        d, g, s, b, model = rest
        device_type, polarity = self._lookup_model(model, line_no)
        if not dev.is_mos(device_type):
            raise SpiceSyntaxError(f"model {model!r} is not a MOSFET", line_no)
        params.setdefault("TYPE", polarity)
        circuit.add_instance(
            name, device_type, {"drain": d, "gate": g, "source": s, "bulk": b}, params
        )

    def _resistor(self, circuit, name, rest, params, line_no):
        if len(rest) < 2:
            raise SpiceSyntaxError(f"resistor {name!r} needs 2 nets", line_no)
        p, n = rest[0], rest[1]
        if len(rest) >= 3:
            params.setdefault("R", parse_value(rest[2]))
        circuit.add_instance(name, dev.RESISTOR, {"p": p, "n": n}, params)

    def _capacitor(self, circuit, name, rest, params, line_no):
        if len(rest) < 2:
            raise SpiceSyntaxError(f"capacitor {name!r} needs 2 nets", line_no)
        p, n = rest[0], rest[1]
        if len(rest) >= 3:
            params.setdefault("C", parse_value(rest[2]))
        circuit.add_instance(name, dev.CAPACITOR, {"p": p, "n": n}, params)

    def _diode(self, circuit, name, rest, params, line_no):
        if len(rest) != 3:
            raise SpiceSyntaxError(f"diode {name!r} needs 2 nets + model", line_no)
        p, n, model = rest
        device_type, _ = self._lookup_model(model, line_no)
        if device_type != dev.DIODE:
            raise SpiceSyntaxError(f"model {model!r} is not a diode", line_no)
        circuit.add_instance(name, dev.DIODE, {"p": p, "n": n}, params)

    def _bjt(self, circuit, name, rest, params, line_no):
        if len(rest) != 4:
            raise SpiceSyntaxError(f"BJT {name!r} needs 3 nets + model", line_no)
        c, b, e, model = rest
        device_type, _ = self._lookup_model(model, line_no)
        if device_type != dev.BJT:
            raise SpiceSyntaxError(f"model {model!r} is not a BJT", line_no)
        params.setdefault("POLARITY", 1.0 if model.lower() == "npn" else -1.0)
        circuit.add_instance(name, dev.BJT, {"c": c, "b": b, "e": e}, params)

    def _subckt_call(self, circuit, name, rest, params, line_no):
        if not rest:
            raise SpiceSyntaxError(f"X card {name!r} needs a subcircuit name", line_no)
        sub_name = rest[-1]
        nets = rest[:-1]
        if sub_name not in self.subckts:
            raise SpiceSyntaxError(f"undefined subcircuit {sub_name!r}", line_no)
        sub = self.subckts[sub_name]
        if len(nets) != len(sub.ports):
            raise SpiceSyntaxError(
                f"X card {name!r}: {len(nets)} nets for {len(sub.ports)} ports",
                line_no,
            )
        circuit.embed(sub, name, dict(zip(sub.ports, nets)))


def read_spice(source: str | TextIO, name: str = "top") -> Circuit:
    """Parse SPICE text (or a file object) into a flat :class:`Circuit`."""
    text = source.read() if hasattr(source, "read") else source
    return SpiceReader().parse(text, name=name)


def _format_params(params: dict[str, float], skip: Iterable[str] = ()) -> str:
    skip = set(skip)
    parts = []
    for key in sorted(params):
        if key in skip:
            continue
        parts.append(f"{key}={format_eng(params[key], digits=6)}")
    return " ".join(parts)


def _card_name(name: str, letter: str) -> str:
    """Return the element-card token for an instance name.

    Names that already start with the right letter are kept verbatim (so a
    writer->reader round trip preserves them); others get the letter
    prepended, as SPICE requires.
    """
    if name[:1].upper() == letter:
        return name
    return f"{letter}{name}"


def write_spice(circuit: Circuit, out: TextIO | None = None) -> str:
    """Serialise a flat circuit to SPICE text (inverse of :func:`read_spice`).

    Instance names that begin with their element letter (``M``/``R``/``C``/
    ``D``/``Q``, any case) survive a round trip verbatim; other names gain
    the letter prefix on write.
    """
    buffer = out or io.StringIO()
    buffer.write(f"* circuit {circuit.name}\n")
    for inst in circuit.instances():
        if dev.is_mos(inst.device_type):
            polarity = inst.param("TYPE", dev.NMOS)
            model = _MOS_MODELS[(inst.device_type, polarity)]
            nets = " ".join(
                inst.conns[t] for t in ("drain", "gate", "source", "bulk")
            )
            tail = _format_params(inst.params, skip={"TYPE"})
            card = f"{_card_name(inst.name, 'M')} {nets} {model} {tail}"
            buffer.write(card.rstrip() + "\n")
        elif inst.device_type == dev.RESISTOR:
            value = format_eng(inst.param("R", 1e3), digits=6)
            tail = _format_params(inst.params, skip={"R"})
            card = (
                f"{_card_name(inst.name, 'R')} {inst.conns['p']} "
                f"{inst.conns['n']} {value} {tail}"
            )
            buffer.write(card.rstrip() + "\n")
        elif inst.device_type == dev.CAPACITOR:
            value = format_eng(inst.param("C", 1e-15), digits=6)
            tail = _format_params(inst.params, skip={"C"})
            card = (
                f"{_card_name(inst.name, 'C')} {inst.conns['p']} "
                f"{inst.conns['n']} {value} {tail}"
            )
            buffer.write(card.rstrip() + "\n")
        elif inst.device_type == dev.DIODE:
            tail = _format_params(inst.params)
            card = (
                f"{_card_name(inst.name, 'D')} {inst.conns['p']} "
                f"{inst.conns['n']} dio {tail}"
            )
            buffer.write(card.rstrip() + "\n")
        elif inst.device_type == dev.BJT:
            model = "npn" if inst.param("POLARITY", 1.0) > 0 else "pnp"
            nets = " ".join(inst.conns[t] for t in ("c", "b", "e"))
            tail = _format_params(inst.params, skip={"POLARITY"})
            card = f"{_card_name(inst.name, 'Q')} {nets} {model} {tail}"
            buffer.write(card.rstrip() + "\n")
    buffer.write(".end\n")
    if out is None:
        return buffer.getvalue()
    return ""
