"""Tests for SPICE parsing and writing."""

import time

import pytest

from repro.circuits import devices as dev
from repro.circuits.spice import read_spice, write_spice
from repro.errors import SpiceSyntaxError
from repro.units import parse_value


class TestParse:
    def test_mosfet_card(self):
        c = read_spice("M1 out in vss vss nch L=16n NF=2 NFIN=4\n.end\n")
        inst = c.instance("M1")
        assert inst.device_type == dev.TRANSISTOR
        assert inst.param("TYPE") == dev.NMOS
        assert inst.param("L") == pytest.approx(16e-9)
        assert inst.net_of("gate") == "in"

    def test_pmos_and_thickgate_models(self):
        c = read_spice(
            "M1 o i vdd vdd pch\nM2 o i vdd vdd pch_hv\n.end\n"
        )
        assert c.instance("M1").param("TYPE") == dev.PMOS
        assert c.instance("M2").device_type == dev.TRANSISTOR_THICKGATE

    def test_resistor_value_and_params(self):
        c = read_spice("R1 a b 10k L=4u\n.end\n")
        inst = c.instance("R1")
        assert inst.param("R") == pytest.approx(10e3)
        assert inst.param("L") == pytest.approx(4e-6)

    def test_capacitor(self):
        c = read_spice("C1 x vss 25f MULTI=2\n.end\n")
        inst = c.instance("C1")
        assert inst.param("C") == pytest.approx(25e-15)
        assert inst.param("MULTI") == 2

    def test_diode_and_bjt(self):
        c = read_spice("D1 a vss dio NF=4\nQ1 c b e pnp\n.end\n")
        assert c.instance("D1").device_type == dev.DIODE
        assert c.instance("D1").param("NF") == 4
        q = c.instance("Q1")
        assert q.device_type == dev.BJT
        assert q.param("POLARITY") == -1.0

    def test_comments_and_continuations(self):
        text = """* a comment
M1 out in vss vss nch
+ L=32n
+ NFIN=8 ; trailing comment
.end
"""
        c = read_spice(text)
        assert c.instance("M1").param("L") == pytest.approx(32e-9)
        assert c.instance("M1").param("NFIN") == 8

    def test_subckt_flattening(self):
        text = """.subckt inv a y
Mp y a vdd vdd pch
Mn y a vss vss nch
.ends
X1 in mid inv
X2 mid out inv
.end
"""
        c = read_spice(text)
        assert c.num_instances == 4
        assert c.instance("X1/Mp").net_of("gate") == "in"
        assert c.instance("X2/Mn").net_of("drain") == "out"

    def test_continuations_cost_linear_time(self):
        """A card's pieces are joined once.  Re-joining the card per ``+``
        line cost time in the square of their count: 160k lines, a 1.2 MiB
        body /predict accepts, took about 48x as long as 20k lines (3.6 s
        against 0.08 s on a 2-vCPU VM); a linear reader takes about 8x."""

        def best_time(lines):
            text = "M1 d g s b nch\n" + "+ L=16n\n" * lines + ".end\n"
            times = []
            for _ in range(3):
                start = time.perf_counter()
                circuit = read_spice(text)
                times.append(time.perf_counter() - start)
            assert circuit.instance("M1").params == {"L": 16e-9, "TYPE": 1.0}
            return min(times)

        assert best_time(160_000) / best_time(20_000) < 20.0

    def test_continuation_pieces_join_with_one_space(self):
        text = "R1 a\n+\n+ b   ; c\n+ 1k L=2u\n.end\n"
        resistor = read_spice(text).instance("R1")
        assert resistor.conns == {"p": "a", "n": "b"}
        assert resistor.params == {"L": 2e-6, "R": 1e3}

    @pytest.mark.parametrize("text, name, line_no", [
        ("M1 out in\ud800x vss vss nch L=16n\n.end\n", "s", 1),
        ("R1 a b 1k\n+ L=2u \udcff\n.end\n", "s", 1),  # the card's first line
        ("R1 a b 1k\n.end\n", "s\ud800", None),
    ])
    def test_lone_surrogates_raise(self, text, name, line_no):
        """A JSON body can carry a lone surrogate, which UTF-8, and so the
        content digest, cannot encode: refused as a syntax error."""
        with pytest.raises(SpiceSyntaxError, match="UTF-8") as caught:
            read_spice(text, name=name)
        assert caught.value.line_no == line_no

    def test_dangling_continuation_raises(self):
        with pytest.raises(SpiceSyntaxError):
            read_spice("+ L=1n\n")

    def test_unknown_model_raises(self):
        with pytest.raises(SpiceSyntaxError):
            read_spice("M1 a b c d mystery\n.end\n")

    def test_wrong_terminal_count_raises(self):
        with pytest.raises(SpiceSyntaxError):
            read_spice("M1 a b c nch\n.end\n")

    def test_undefined_subckt_raises(self):
        with pytest.raises(SpiceSyntaxError):
            read_spice("X1 a b ghost\n.end\n")

    def test_port_count_mismatch_raises(self):
        text = ".subckt inv a y\nRx a y 1k\n.ends\nX1 a inv\n.end\n"
        with pytest.raises(SpiceSyntaxError):
            read_spice(text)

    def test_unterminated_subckt_raises(self):
        with pytest.raises(SpiceSyntaxError):
            read_spice(".subckt foo a\nR1 a b 1k\n")

    def test_unsupported_element_raises(self):
        with pytest.raises(SpiceSyntaxError):
            read_spice("L1 a b 1n\n.end\n")

    def test_dot_cards_tolerated(self):
        c = read_spice(".option scale=1\nR1 a b 1k\n.end\n")
        assert c.num_instances == 1

    def test_error_carries_line_number(self):
        try:
            read_spice("R1 a b 1k\nM1 a b c bad_model\n.end\n")
        except SpiceSyntaxError as exc:
            assert exc.line_no == 2
        else:  # pragma: no cover
            pytest.fail("expected SpiceSyntaxError")


class TestWrite:
    def test_roundtrip_preserves_structure(self):
        text = """M1 out in vss vss nch L=16n NF=2 NFIN=4 MULTI=1
Mload out bias vdd vdd pch_hv L=150n NF=1 NFIN=8 MULTI=1
R1 out fb 10k L=4u
C1 fb vss 25f MULTI=2
D1 pad vdd dio NF=8
Q1 c b e npn
.end
"""
        first = read_spice(text, name="rt")
        second = read_spice(write_spice(first), name="rt")
        assert second.num_instances == first.num_instances
        for inst in first.instances():
            twin = second.instance(inst.name)
            assert twin.device_type == inst.device_type
            assert twin.conns == inst.conns
            for key, value in inst.params.items():
                assert twin.param(key) == pytest.approx(value, rel=1e-5)

    def test_write_contains_models(self):
        text = write_spice(read_spice("M1 a b vss vss nch\n.end\n"))
        assert "nch" in text
        assert text.strip().endswith(".end")


class TestUnits:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("4.5f", 4.5e-15),
            ("10p", 10e-12),
            ("16n", 16e-9),
            ("2.2u", 2.2e-6),
            ("3meg", 3e6),
            ("1k", 1e3),
            ("7", 7.0),
            ("1e-3", 1e-3),
            ("10pF", 10e-12),
        ],
    )
    def test_parse_value(self, text, value):
        assert parse_value(text) == pytest.approx(value)
