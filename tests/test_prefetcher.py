"""The chaining prefetcher: emission, chaining, windows, resync.

Tests teach the correlation tables by replaying a (kernel, faults)
schedule through the correlator, then attach a fresh prefetcher and assert
on the commands it produces — separating learning from prediction.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block_table import BlockTableConfig
from repro.core.correlator import Correlator
from repro.core.prefetcher import ChainingPrefetcher


def teach(schedule, repeats=3):
    """Build a correlator whose tables learned ``schedule``."""
    cor = Correlator(BlockTableConfig(num_rows=64, assoc=2, num_succs=4))
    for _ in range(repeats):
        for exec_id, blocks in schedule:
            cor.on_kernel_launch(exec_id)
            for blk in blocks:
                cor.on_fault(blk)
    return cor


def replay_launch(cor, pf, exec_id):
    cor.on_kernel_launch(exec_id)
    pf.on_kernel_launch(exec_id)


def replay_fault(cor, pf, block):
    cor.on_fault(block)
    pf.restart_from_fault(block)


def drain(pf, limit=100):
    out = []
    while len(out) < limit:
        cmd = pf.pop_command()
        if cmd is None:
            break
        out.append(cmd)
    return out


SCHEDULE = [(1, [10, 11]), (2, [20, 21]), (3, [30]), (4, [40])]


def test_degree_must_be_positive():
    cor = teach(SCHEDULE)
    with pytest.raises(ValueError):
        ChainingPrefetcher(cor, 0)


def test_chain_replays_learned_sequence():
    cor = teach(SCHEDULE)
    pf = ChainingPrefetcher(cor, degree=8)
    replay_launch(cor, pf, 1)
    replay_fault(cor, pf, 10)
    cmds = drain(pf)
    assert set(cmds) >= {10, 11, 20, 21, 30, 40}


def test_chaining_emits_kernels_in_order():
    cor = teach(SCHEDULE)
    pf = ChainingPrefetcher(cor, degree=8)
    replay_launch(cor, pf, 1)
    replay_fault(cor, pf, 10)
    cmds = drain(pf)
    assert cmds.index(20) > cmds.index(11)
    assert cmds.index(30) > cmds.index(21)


def test_window_limits_lookahead():
    cor = teach(SCHEDULE)
    pf = ChainingPrefetcher(cor, degree=1)
    replay_launch(cor, pf, 1)
    replay_fault(cor, pf, 10)
    cmds = drain(pf)
    assert 20 in cmds       # one kernel ahead allowed
    assert 30 not in cmds   # two ahead is beyond the window
    assert 40 not in cmds


def test_window_slides_with_kernel_progress():
    cor = teach(SCHEDULE)
    pf = ChainingPrefetcher(cor, degree=1)
    replay_launch(cor, pf, 1)
    replay_fault(cor, pf, 10)
    drain(pf)
    pf.on_kernel_end()
    replay_launch(cor, pf, 2)
    assert 30 in drain(pf)


def test_launch_alone_revives_dead_chain():
    """Steady state: zero faults, launches keep the chain running."""
    cor = teach(SCHEDULE)
    pf = ChainingPrefetcher(cor, degree=8)
    replay_launch(cor, pf, 1)
    cmds = drain(pf)
    assert 10 in cmds and 11 in cmds


def test_on_chain_fault_does_not_reset():
    cor = teach([(1, [10, 11, 12])])
    pf = ChainingPrefetcher(cor, degree=4)
    replay_launch(cor, pf, 1)
    replay_fault(cor, pf, 10)
    emitted = pf.commands_emitted
    replay_fault(cor, pf, 11)  # predicted block: chain must stay put
    assert pf.commands_emitted == emitted


def test_off_chain_fault_restarts_from_fault():
    cor = teach(SCHEDULE)
    pf = ChainingPrefetcher(cor, degree=4)
    replay_launch(cor, pf, 1)
    replay_fault(cor, pf, 99)  # unknown block: chain diverged
    assert 99 in pf.protected_blocks()
    # The faulted block seeds the new chain but is NOT emitted as a
    # prefetch command — the demand fault is already migrating it.
    assert 99 not in drain(pf)


def test_fault_restart_emits_successors_not_faulted_block():
    """Chain restart prefetches what comes *after* the fault, not the fault.

    The prefetcher's launch hook is deliberately skipped here so the only
    emission source is ``restart_from_fault`` itself — the launch path
    legitimately emits the kernel's own working set (block 10 included).
    """
    cor = teach(SCHEDULE)
    pf = ChainingPrefetcher(cor, degree=4)
    cor.on_kernel_launch(1)
    replay_fault(cor, pf, 10)
    cmds = drain(pf)
    assert 10 not in cmds       # already migrating via the fault path
    assert {11, 20, 21} <= set(cmds)


def test_protected_blocks_cover_window():
    cor = teach(SCHEDULE)
    pf = ChainingPrefetcher(cor, degree=2)
    replay_launch(cor, pf, 1)
    replay_fault(cor, pf, 10)
    drain(pf)
    assert {10, 11, 20, 21, 30} <= pf.protected_blocks()


def test_protection_retires_as_kernels_end():
    # A long loop so the chain cannot wrap around to kernel 1 within the
    # look-ahead window (cyclic workloads legitimately re-predict early
    # blocks near the iteration boundary).
    schedule = [(k, [k * 10]) for k in range(1, 7)]
    cor = teach(schedule)
    pf = ChainingPrefetcher(cor, degree=2)
    replay_launch(cor, pf, 1)
    replay_fault(cor, pf, 10)
    drain(pf)
    pf.on_kernel_end()
    replay_launch(cor, pf, 2)
    pf.on_kernel_end()
    replay_launch(cor, pf, 3)
    assert 10 not in pf.protected_blocks()


def test_shared_block_stays_protected_until_last_use():
    """A block used by two nearby kernels keeps protection through both."""
    cor = teach([(1, [10]), (2, [10, 20])])
    pf = ChainingPrefetcher(cor, degree=4)
    replay_launch(cor, pf, 1)
    replay_fault(cor, pf, 10)
    drain(pf)
    pf.on_kernel_end()  # kernel 1 done; kernel 2 still expects block 10
    assert 10 in pf.protected_blocks()


def test_push_back_requeues_at_front():
    cor = teach(SCHEDULE)
    pf = ChainingPrefetcher(cor, degree=4)
    replay_launch(cor, pf, 1)
    replay_fault(cor, pf, 10)
    first = pf.pop_command()
    pf.push_back(first)
    assert pf.pop_command() == first


def test_chain_breaks_counted_on_prediction_failure():
    cor = teach([(1, [10])], repeats=1)  # no next-kernel record exists
    pf = ChainingPrefetcher(cor, degree=4)
    replay_launch(cor, pf, 1)
    replay_fault(cor, pf, 10)
    drain(pf)
    assert pf.chain_breaks >= 1


def test_polling_a_dead_chain_books_one_break():
    """A failed prediction is booked once: the engine polls the queue
    before every block access and steps on every kernel end, and none of
    those polls may book another break or exec-table miss until a launch
    or a restart gives the chain something new to predict from."""
    cor = teach([(1, [10]), (2, [20])], repeats=1)  # 2 has no successor
    pf = ChainingPrefetcher(cor, degree=4)
    replay_launch(cor, pf, 2)
    replay_fault(cor, pf, 20)
    drain(pf)
    assert pf.chain_breaks == 1
    misses = cor.exec_table.misses
    for _ in range(25):
        assert pf.pop_command() is None
        pf.on_kernel_end()
    assert pf.chain_breaks == 1
    assert cor.exec_table.misses == misses
    replay_fault(cor, pf, 99)  # off-chain fault: a new chain, a new miss
    drain(pf)
    assert pf.chain_breaks == 2
    assert cor.exec_table.misses == misses + 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["launch", "end", "fault", "pop"]),
                max_size=60),
       st.integers(1, 4), st.randoms(use_true_random=False))
def test_window_retirement_keeps_protection_exact(ops, degree, rnd):
    """After every kernel end no window set at or below the GPU's position
    survives, and the protected set is exactly the union of the live ones
    — including sets re-created below the retirement cursor by a restart
    between a kernel's end and the next launch."""
    cor = teach(SCHEDULE)
    pf = ChainingPrefetcher(cor, degree=degree)
    kernels = [k for k, _ in SCHEDULE]
    for op in ops:
        if op == "launch":
            replay_launch(cor, pf, rnd.choice(kernels))
        elif op == "end":
            pf.on_kernel_end()
            assert all(pos > pf._gpu_pos for pos in pf._window_sets)
        elif op == "fault":
            replay_fault(cor, pf, rnd.choice([10, 11, 20, 21, 30, 40, 99]))
        else:
            pf.pop_command()
        live = set().union(*pf._window_sets.values())
        assert pf.protected_blocks() == live


def test_commands_not_duplicated_within_window():
    cor = teach(SCHEDULE)
    pf = ChainingPrefetcher(cor, degree=8)
    replay_launch(cor, pf, 1)
    replay_fault(cor, pf, 10)
    cmds = drain(pf)
    assert len(cmds) == len(set(cmds))
