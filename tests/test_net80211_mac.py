"""MAC-address tests."""

import pickle
from dataclasses import FrozenInstanceError, dataclass

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.net80211.mac import BROADCAST_MAC, MacAddress, MacNames

macs = st.integers(min_value=0, max_value=(1 << 48) - 1)


@dataclass(frozen=True, order=True)
class ReferenceMac:
    """The generated-method address type the hand-written one replaces."""

    value: int

    def __str__(self) -> str:
        octets = [(self.value >> shift) & 0xFF
                  for shift in (40, 32, 24, 16, 8, 0)]
        return ":".join(f"{octet:02x}" for octet in octets)


class TestParsing:
    def test_parse_colon(self):
        mac = MacAddress.parse("00:1b:63:aa:bb:cc")
        assert str(mac) == "00:1b:63:aa:bb:cc"

    def test_parse_dash(self):
        assert str(MacAddress.parse("00-1b-63-aa-bb-cc")) == \
            "00:1b:63:aa:bb:cc"

    def test_parse_uppercase(self):
        assert str(MacAddress.parse("00:1B:63:AA:BB:CC")) == \
            "00:1b:63:aa:bb:cc"

    def test_invalid_strings(self):
        for bad in ("", "00:1b:63", "00:1b:63:aa:bb:cc:dd",
                    "gg:1b:63:aa:bb:cc", "001b63aabbcc"):
            with pytest.raises(ValueError):
                MacAddress.parse(bad)

    def test_out_of_range_value(self):
        with pytest.raises(ValueError):
            MacAddress(1 << 48)
        with pytest.raises(ValueError):
            MacAddress(-1)

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_str_parse_roundtrip(self, value):
        mac = MacAddress(value)
        assert MacAddress.parse(str(mac)) == mac


class TestProperties:
    def test_broadcast(self):
        assert BROADCAST_MAC.is_broadcast
        assert BROADCAST_MAC.is_multicast
        assert str(BROADCAST_MAC) == "ff:ff:ff:ff:ff:ff"

    def test_oui_and_vendor(self):
        mac = MacAddress.parse("00:1b:63:12:34:56")
        assert mac.oui == "00:1b:63"
        assert mac.vendor == "Apple"

    def test_unknown_vendor(self):
        assert MacAddress.parse("f2:00:00:00:00:01").vendor is None

    def test_locally_administered_bit(self):
        assert MacAddress.parse("02:00:00:00:00:01").is_locally_administered
        assert not MacAddress.parse("00:1b:63:00:00:01").is_locally_administered

    def test_multicast_bit(self):
        assert MacAddress.parse("01:00:5e:00:00:01").is_multicast
        assert not MacAddress.parse("00:1b:63:00:00:01").is_multicast

    def test_ordering_and_hashing(self):
        a = MacAddress(1)
        b = MacAddress(2)
        assert a < b
        assert len({a, b, MacAddress(1)}) == 2


class TestIdentity:
    """Hash, equality, ordering, text and pickling over the int value."""

    @given(macs, macs)
    @example(0, (1 << 48) - 1)
    @example((1 << 48) - 1, (1 << 48) - 1)
    @example(0, 0)
    def test_matches_generated_semantics(self, a, b):
        mac_a, mac_b = MacAddress(a), MacAddress(b)
        ref_a, ref_b = ReferenceMac(a), ReferenceMac(b)
        assert (mac_a == mac_b) == (ref_a == ref_b)
        assert (mac_a != mac_b) == (ref_a != ref_b)
        assert (mac_a < mac_b) == (ref_a < ref_b)
        assert (mac_a <= mac_b) == (ref_a <= ref_b)
        assert (mac_a > mac_b) == (ref_a > ref_b)
        assert (mac_a >= mac_b) == (ref_a >= ref_b)
        assert hash(mac_a) == hash(MacAddress(a))
        assert len({mac_a, mac_b, MacAddress(a)}) == len({ref_a, ref_b})
        assert str(mac_a) == str(ref_a)
        assert sorted([mac_b, mac_a]) == [MacAddress(v)
                                          for v in sorted([a, b])]
        copy = pickle.loads(pickle.dumps(mac_a))
        assert copy == mac_a and hash(copy) == hash(mac_a)
        assert str(copy) == str(mac_a)

    def test_comparison_with_non_mac_is_not_implemented(self):
        mac = MacAddress(1)
        for other in (1, "00:00:00:00:00:01", ReferenceMac(1), None):
            for method in ("__eq__", "__lt__", "__le__", "__gt__",
                           "__ge__"):
                assert getattr(mac, method)(other) is NotImplemented
        assert mac != 1
        with pytest.raises(TypeError):
            mac < 1  # noqa: B015

    def test_still_frozen_and_validated(self):
        mac = MacAddress(5)
        with pytest.raises(FrozenInstanceError):
            mac.value = 6
        with pytest.raises(ValueError):
            MacAddress(1 << 48)

    def test_mac_names_formats_once(self):
        names = MacNames()
        mac = MacAddress(0x001B63AABBCC)
        assert names[mac] == "00:1b:63:aa:bb:cc"
        assert names[mac] is names[mac]
        assert list(names) == [mac]


class TestRandomGeneration:
    def test_random_is_unicast_global(self):
        rng = np.random.default_rng(3)
        for _ in range(32):
            mac = MacAddress.random(rng)
            assert not mac.is_multicast
            assert not mac.is_locally_administered

    def test_random_with_oui(self):
        rng = np.random.default_rng(3)
        mac = MacAddress.random(rng, oui="00:15:6d")
        assert mac.oui == "00:15:6d"
        assert mac.vendor == "Ubiquiti"

    def test_pseudonym_is_local_unicast(self):
        rng = np.random.default_rng(3)
        for _ in range(32):
            mac = MacAddress.random_pseudonym(rng)
            assert mac.is_locally_administered
            assert not mac.is_multicast

    def test_deterministic(self):
        assert (MacAddress.random(np.random.default_rng(9))
                == MacAddress.random(np.random.default_rng(9)))
