"""Kernel event ordering, pinned as literal expectations.

The pending queue orders entries by ``(when, seq)``: earlier instants
first, and entries at one instant in the order they were scheduled,
whether they were scheduled from the past or from within that instant.
"""

from repro.sim import Simulator

#: Callback log of the mixed same-instant/future schedule in
#: :func:`test_mixed_schedule_order`, grouped by instant.
BREW_LOG = [
    (0.0, [
        (0, 'seed0'), (0, 'seed2'), (1, 'same'), (1, 'same'), (2, 'same'),
        (2, 'same'), (3, 'same'), (3, 'same'),
    ]),
    (0.5, [
        (1, 'later'), (1, 'later'), (2, 'later'), (2, 'later'), (3, 'later'),
        (3, 'later'), (2, 'same'), (2, 'same'), (3, 'same'), (3, 'same'),
        (3, 'same'), (3, 'same'),
    ]),
    (1.0, [
        (0, 'seed1'), (0, 'seed3'), (2, 'later'), (2, 'later'), (3, 'later'),
        (3, 'later'), (3, 'later'), (3, 'later'), (1, 'same'), (1, 'same'),
        (3, 'same'), (3, 'same'), (2, 'same'), (2, 'same'), (3, 'same'),
        (3, 'same'),
    ]),
    (1.5, [
        (1, 'later'), (1, 'later'), (3, 'later'), (3, 'later'), (2, 'later'),
        (2, 'later'), (3, 'later'), (3, 'later'), (2, 'same'), (2, 'same'),
        (3, 'same'), (3, 'same'), (3, 'same'), (3, 'same'),
    ]),
    (2.0, [
        (2, 'later'), (2, 'later'), (3, 'later'), (3, 'later'), (3, 'later'),
        (3, 'later'), (3, 'same'), (3, 'same'),
    ]),
    (2.5, [
        (3, 'later'), (3, 'later'),
    ]),
]


def test_call_at_fires_on_exact_float():
    # 0.1 + 0.2 is the canonical non-representable sum; call_at must
    # pin the due time to the given float exactly, with no
    # now + delay round trip perturbing it.
    sim = Simulator()
    due = 0.1 + 0.2
    fired = []
    sim.call_at(due, lambda _: fired.append(sim.now))
    sim.run()
    assert fired == [due]


def test_call_at_chain_end():
    sim = Simulator()
    for k in range(40):
        sim.call_at(k * 0.7 + 0.1, lambda _: None)
    assert (sim.run(), sim.events_processed) == (27.4, 40)


def test_equal_timestamp_fifo():
    # Callbacks scheduled for the same instant fire in scheduling
    # order -- from the past, and from within that instant.
    sim = Simulator()
    order = []
    for i in range(5):
        sim.call_at(10.0, order.append, ("pre", i))

    def at_ten(_):
        order.append(("mid", 0))
        for j in range(3):
            sim.call_at(10.0, order.append, ("post", j))

    sim.call_at(10.0, at_ten, None)
    sim.run()
    assert order == ([("pre", i) for i in range(5)]
                     + [("mid", 0)]
                     + [("post", j) for j in range(3)])


def test_mixed_schedule_order():
    # A brew of same-instant and future wakeups: every callback
    # schedules one successor at the current instant and one 0.5 us
    # later, from two seed instants.
    sim = Simulator()
    log = []

    def tick(label):
        log.append((sim.now, label))
        if label[0] < 3:
            sim.call_at(sim.now, tick, (label[0] + 1, "same"))
            sim.call_at(sim.now + 0.5, tick, (label[0] + 1, "later"))

    for i in range(4):
        sim.call_at(float(i % 2), tick, (0, f"seed{i}"))
    sim.run()
    assert log == [(t, label) for t, labels in BREW_LOG
                   for label in labels]
