"""Tests for packet construction."""

from repro.net.packet import (
    ACK,
    ACK_PACKET_BYTES,
    DATA,
    DATA_PACKET_BYTES,
    MSS_BYTES,
    Packet,
    make_ack_packet,
    make_data_packet,
)


class TestConstants:
    def test_mss_fits_in_wire_packet(self):
        assert MSS_BYTES < DATA_PACKET_BYTES

    def test_ack_smaller_than_data(self):
        assert ACK_PACKET_BYTES < DATA_PACKET_BYTES


class TestDataPacket:
    def test_fields(self):
        packet = make_data_packet(7, 1, 42, 1.5, (), ect=True)
        assert packet.kind == DATA
        assert packet.flow == 7
        assert packet.subflow == 1
        assert packet.seq == 42
        assert packet.ts == 1.5
        assert packet.ect is True
        assert packet.ce is False
        assert packet.size == DATA_PACKET_BYTES
        assert packet.hop == 0

    def test_non_ecn_sender_marks_not_ect(self):
        packet = make_data_packet(0, 0, 0, 0.0, (), ect=False)
        assert packet.ect is False


class TestAckPacket:
    def test_fields(self):
        ack = make_ack_packet(3, 0, 99, 2.0, ts_echo=1.9, path=(), ece_count=2)
        assert ack.kind == ACK
        assert ack.ack == 99
        assert ack.ts_echo == 1.9
        assert ack.ece_count == 2
        assert ack.size == ACK_PACKET_BYTES

    def test_acks_are_never_ect(self):
        ack = make_ack_packet(0, 0, 0, 0.0, 0.0, ())
        assert ack.ect is False

    def test_default_ece_zero(self):
        ack = make_ack_packet(0, 0, 0, 0.0, 0.0, ())
        assert ack.ece_count == 0


class TestSlots:
    def test_packet_has_no_dict(self):
        packet = Packet(DATA, 1500, 0, 0)
        assert not hasattr(packet, "__dict__")

    def test_repr_mentions_kind(self):
        packet = Packet(DATA, 1500, 1, 2, seq=5)
        assert "DATA" in repr(packet)
        packet.ce = True
        assert "+CE" in repr(packet)
