"""PipeTransport: framing and batching over real pipes."""

from __future__ import annotations

import pytest

from repro.ipc.frames import FrameError, pack_frame
from repro.ipc.transport import PipeTransport


def pair(pipe_pair):
    left_end, right_end = pipe_pair
    return PipeTransport(left_end), PipeTransport(right_end)


class TestRoundTrips:
    MESSAGE = {
        "cmd": "execute",
        "request": {"op": "RETRIEVE", "query": [[["FILE", "=", "f"]]]},
        "label": "broadcast",
        "elapsed_ms": 0.4375,
        "nothing": None,
        "flags": [True, False],
    }

    def test_single_message(self, pipe_pair):
        sender, receiver = pair(pipe_pair)
        sender.send(self.MESSAGE)
        assert receiver.recv() == self.MESSAGE

    def test_batch_order_preserved(self, pipe_pair):
        sender, receiver = pair(pipe_pair)
        batch = [dict(self.MESSAGE, seq=i) for i in range(7)]
        sender.send_batch(batch)
        assert receiver.recv_batch() == batch

    def test_recv_any_distinguishes_frames(self, pipe_pair):
        sender, receiver = pair(pipe_pair)
        sender.send({"a": 1})
        sender.send_batch([{"b": 2}])
        assert receiver.recv_any() == (False, {"a": 1})
        assert receiver.recv_any() == (True, [{"b": 2}])

    def test_many_messages_share_one_connection(self, pipe_pair):
        sender, receiver = pair(pipe_pair)
        for i in range(50):
            sender.send({"cmd": "replay", "seq": i, "file": "student"})
            assert receiver.recv()["seq"] == i

    def test_poll(self, pipe_pair):
        sender, receiver = pair(pipe_pair)
        assert receiver.poll(0.0) is False
        sender.send({"x": 1})
        assert receiver.poll(1.0) is True


class TestFrameDiscipline:
    def test_foreign_format_byte_is_typed(self, pipe_pair):
        left_end, right_end = pipe_pair
        frame = bytearray(pack_frame(0, b'{"x":1}'))
        frame[1] = 0x00  # a peer framing some other body encoding
        left_end.send_bytes(bytes(frame))
        with pytest.raises(FrameError, match="format byte"):
            PipeTransport(right_end).recv()

    def test_recv_refuses_batch_frame(self, pipe_pair):
        sender, receiver = pair(pipe_pair)
        sender.send_batch([{"x": 1}])
        with pytest.raises(FrameError, match="unexpected batch"):
            receiver.recv()

    def test_recv_batch_refuses_single_frame(self, pipe_pair):
        sender, receiver = pair(pipe_pair)
        sender.send({"x": 1})
        with pytest.raises(FrameError, match="expected a batch"):
            receiver.recv_batch()

    def test_garbage_on_the_pipe_is_typed(self, pipe_pair):
        left_end, right_end = pipe_pair
        receiver = PipeTransport(right_end)
        left_end.send_bytes(b"not a frame at all")
        with pytest.raises(FrameError):
            receiver.recv()

    def test_unencodable_payload_is_typed(self, pipe_pair):
        sender, _ = pair(pipe_pair)
        with pytest.raises(FrameError):
            sender.send({"bad": object()})
