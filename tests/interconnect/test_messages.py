"""Unit tests for the message vocabulary and accounting."""

from repro.interconnect.messages import MessageKind, MessageLog


def test_message_log_counts():
    log = MessageLog()
    log.record(MessageKind.READ_REQ)
    log.record(MessageKind.READ_REQ)
    log.record(MessageKind.INVALIDATE, 3)
    assert log.sent.get(MessageKind.READ_REQ, 0) == 2
    assert log.sent.get(MessageKind.INVALIDATE, 0) == 3
    assert log.sent.get(MessageKind.ACK, 0) == 0
    assert sum(log.sent.values()) == 5


def test_protocol_traffic_is_logged_end_to_end(harness):
    h = harness
    page = h.page_homed_at(1)
    h.read(h.cpu_on_node(0), h.vaddr(page, 0))
    assert h.node(0).msglog.sent.get(MessageKind.READ_REQ, 0) == 1
    assert h.node(0).msglog.sent.get(MessageKind.PAGE_IN_REQ, 0) == 1
    h.write(h.cpu_on_node(2), h.vaddr(page, 0))
    assert h.node(2).msglog.sent.get(MessageKind.READ_EXCL_REQ, 0) == 1
    assert h.node(1).msglog.sent.get(MessageKind.INVALIDATE, 0) == 1
