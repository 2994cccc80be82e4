"""UDP endpoint tests: loopback transport for the packet wire format."""

import math
import socket
import time

from hpfnav.netloop import Packet, UdpChannel, UdpEndpoint, pack_packet, prepare, run_loop
from hpfnav.workspace import load_scenario


def test_loopback_pose_roundtrip():
    with UdpEndpoint() as a, UdpEndpoint() as b:
        a.peer = b.address
        pkt = Packet("pose", 4, 1.5, (1.0, 2.0, -math.pi / 3))
        a.send(pkt)
        got = b.recv(timeout=1.0)
        assert got == pkt
        assert pack_packet(got) == pack_packet(pkt)


def test_cmd_payload_wire_size():
    raw = pack_packet(Packet("cmd", 0, 0.0, (0.2, 0.0)))
    assert len(raw) - 18 == 16  # two little-endian doubles after the header


def test_recv_nothing_returns_none():
    with UdpEndpoint() as a:
        assert a.recv(0.0) is None
        assert a.recv(0.05) is None


def test_send_without_peer_raises():
    import pytest

    with UdpEndpoint() as a:
        with pytest.raises(ValueError, match="peer"):
            a.send(Packet("cmd", 0, 0.0, (0.0, 0.0)))


def test_send_to_dead_peer_is_silent():
    dead = UdpEndpoint()
    addr = dead.address
    dead.close()
    with UdpEndpoint(peer=addr) as a:
        pkt = Packet("cmd", 1, 0.0, (0.1, 0.0))
        a.send(pkt)
        a.send(pkt)  # no error even after the first datagram vanished
        assert a.recv(0.05) is None


def test_channel_stamps_lag_at_poll_time():
    with UdpEndpoint() as ep:
        ep.peer = ep.address
        ch = UdpChannel(ep)
        assert ch.push(Packet("pose", 0, 0.0, (0.0, 0.0, 0.0))) is None
        out = []
        deadline = 50
        while not out and deadline:
            out = ch.poll(0.5)
            deadline -= 1
        (pkt, lag), = out
        assert pkt.seq == 0
        assert lag == 0.5


def test_channel_drops_malformed_datagrams():
    with UdpEndpoint() as ep, socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as stray:
        ep.peer = ep.address
        ch = UdpChannel(ep)
        stray.sendto(b"garbage", ep.address)   # 7 bytes: shorter than the header
        good = Packet("pose", 3, 0.25, (1.0, 2.0, 0.5))
        ch.push(good)
        out = []
        for _ in range(50):
            out += ch.poll(0.5)
            if out and ch.malformed:
                break
            time.sleep(0.01)
        assert [pkt for pkt, _ in out] == [good]
        assert ch.malformed == 1


def test_run_loop_over_udp_loopback(scenario_dir):
    sc = load_scenario(scenario_dir / "open.json")
    state = prepare(sc)
    with UdpEndpoint() as up_ep, UdpEndpoint() as dn_ep:
        up_ep.peer = up_ep.address
        dn_ep.peer = dn_ep.address
        log = run_loop(sc, state=state, uplink=UdpChannel(up_ep), downlink=UdpChannel(dn_ep))
    # deliveries are only seen at the next event, so the loop behaves like a
    # one-frame round trip; it must still close the loop and get there
    assert log.outcome == "reached"
    assert not log.any_collision
