"""Executors: warm forking, determinism, and the per-exec oracles."""

import pytest

from repro.fuzz import SyscallExecutor, ChirpExecutor, seed_scenario
from repro.fuzz.executor import SHARED_DIR
from repro.fuzz.scenario import Scenario


@pytest.fixture(scope="module")
def syscall_executor():
    executor = SyscallExecutor(world_users=4)
    executor.template_snapshot()
    return executor


@pytest.fixture(scope="module")
def chirp_executor():
    executor = ChirpExecutor()
    executor.template_snapshot()
    return executor


# --------------------------------------------------------------------- #
# syscall surface
# --------------------------------------------------------------------- #


def test_seed_scenario_runs_clean(syscall_executor):
    result = syscall_executor.execute(seed_scenario("syscall"))
    assert result.verdict == "ok"
    assert result.coverage
    # one transcript entry per op
    assert len(result.transcript) == 2
    # first op: reading alice's 0600 secret must be denied
    op, out = result.transcript[0]
    assert op == "open_read"
    assert isinstance(out, int) and out < 0
    # second op: writing inside the box home must succeed (10 bytes)
    assert result.transcript[1] == ["open_write", 10]


def test_execution_is_deterministic(syscall_executor):
    a = syscall_executor.execute(seed_scenario("syscall"))
    b = syscall_executor.execute(seed_scenario("syscall"))
    assert a.transcript == b.transcript
    assert a.transcript_sha() == b.transcript_sha()
    assert a.coverage == b.coverage
    assert a.touched == b.touched


def test_cold_build_reproduces_the_warm_fork(syscall_executor):
    warm = syscall_executor.execute(seed_scenario("syscall"))
    cold = syscall_executor.execute(seed_scenario("syscall"), warm=False)
    assert cold.transcript == warm.transcript
    assert cold.verdict == "ok"


def test_denied_ops_produce_monitor_edges(syscall_executor):
    result = syscall_executor.execute(seed_scenario("syscall"))
    assert any("|monitor|" in edge for edge in result.coverage)
    assert any(edge.startswith("seq|") for edge in result.coverage)


def test_invalid_identity_is_rejected_at_the_gate(syscall_executor):
    scenario = seed_scenario("syscall")
    scenario.identity = "two words"  # whitespace: fails validate_identity
    result = syscall_executor.execute(scenario)
    assert result.verdict == "ok"
    assert result.coverage == {"syscall|gate|identity|rejected"}
    assert result.transcript[0][0] == "identity-rejected"


def test_hostile_script_stays_contained(syscall_executor):
    scenario = Scenario(
        surface="syscall",
        identity="Fuzzer",
        ops=[
            ["open_write", "/home/alice/secret"],
            ["unlink", "/home/alice/keep/data"],
            ["chmod", "/etc/passwd"],
            ["rename", "/home/alice/public", "stolen.txt"],
            ["truncate", "../../../home/alice/secret"],
        ],
    )
    result = syscall_executor.execute(scenario)
    assert result.verdict == "ok"  # nothing leaked
    # every one of those must have been denied
    for op, out in result.transcript:
        assert isinstance(out, int) and out < 0, (op, out)


def test_granted_zone_write_succeeds_and_is_not_a_leak(syscall_executor):
    scenario = Scenario(
        surface="syscall",
        identity="Fuzzer",
        ops=[["open_write", f"{SHARED_DIR}/drop.txt"]],
        grants=[["Fuzzer", "rwla"]],
    )
    result = syscall_executor.execute(scenario)
    assert result.verdict == "ok"
    assert ["grant", "Fuzzer", "rwla"] in result.transcript
    assert ["open_write", 10] in result.transcript


def test_check_survivor_passes_on_a_clean_scenario(syscall_executor):
    scenario = seed_scenario("syscall")
    result = syscall_executor.execute(scenario)
    assert syscall_executor.check_survivor(scenario, result) == ""


def test_snapshot_id_is_stable_and_world_sensitive(syscall_executor):
    same = SyscallExecutor(world_users=4)
    assert same.snapshot_id == syscall_executor.snapshot_id
    bigger = SyscallExecutor(world_users=5)
    assert bigger.snapshot_id != syscall_executor.snapshot_id
    assert syscall_executor.snapshot_id.startswith("syscall:")


def test_containment_oracle_fires_when_the_zone_shrinks():
    class LeakyExecutor(SyscallExecutor):
        # the shared dir is no longer considered legitimately writable,
        # so a granted write there must trip the containment oracle
        writable_zone = ("/tmp",)

    executor = LeakyExecutor(world_users=2)
    scenario = Scenario(
        surface="syscall",
        identity="Fuzzer",
        ops=[["open_write", f"{SHARED_DIR}/drop.txt"]],
        grants=[["Fuzzer", "rwla"]],
    )
    result = executor.execute(scenario)
    assert result.verdict.startswith("violation:containment:")
    assert "modified" in result.verdict or "deleted" in result.verdict


# --------------------------------------------------------------------- #
# chirp surface
# --------------------------------------------------------------------- #


def test_chirp_seed_scenario_authenticates_and_runs(chirp_executor):
    result = chirp_executor.execute(seed_scenario("chirp"))
    assert result.verdict == "ok"
    assert result.transcript[0][0] == "authenticated"
    assert "/O=UnivNowhere/CN=Fred" in result.transcript[0][1]
    assert any("chirp|" in edge for edge in result.coverage)


def test_chirp_execution_is_deterministic(chirp_executor):
    a = chirp_executor.execute(seed_scenario("chirp"))
    b = chirp_executor.execute(seed_scenario("chirp"))
    assert a.transcript == b.transcript
    assert a.coverage == b.coverage


def test_chirp_read_only_dn_is_denied_writes(chirp_executor):
    scenario = Scenario(
        surface="chirp",
        identity="/O=NotreDame/CN=Heidi",  # rl only in the base ACL
        ops=[["put", "/evil.txt"], ["stat", "/"]],
    )
    result = chirp_executor.execute(scenario)
    assert result.verdict == "ok"
    put_out = dict((op, out) for op, out in result.transcript[1:])["put"]
    assert put_out == ["chirp-error", "EACCES"]


def test_chirp_fault_schedule_adds_fault_edges(chirp_executor):
    scenario = seed_scenario("chirp")
    scenario.fault = {
        "seed": 7,
        "rates": {"spike": 0.9},
        "restart_at_ops": [],
    }
    result = chirp_executor.execute(scenario)
    assert any(edge.startswith("fault|spike|") for edge in result.coverage)
    # the same schedule replays identically
    again = chirp_executor.execute(scenario)
    assert again.transcript == result.transcript
    assert again.coverage == result.coverage


def test_chirp_blackout_window_adds_fault_edges_and_replays(chirp_executor):
    # the scheduled shard-death fault: the whole endpoint refuses for a
    # window of the plan's op counter, and the run stays contained and
    # deterministic (exactly what makes a blackout reproducer an artifact)
    scenario = seed_scenario("chirp")
    scenario.fault = {
        "seed": 11,
        "rates": {},
        "restart_at_ops": [],
        "blackout_windows": [[2, 30]],
    }
    result = chirp_executor.execute(scenario)
    assert result.verdict == "ok"
    assert any(edge.startswith("fault|blackout|") for edge in result.coverage)
    again = chirp_executor.execute(scenario)
    assert again.transcript == result.transcript
    assert again.coverage == result.coverage


def test_chirp_survivor_check_passes_on_seed(chirp_executor):
    scenario = seed_scenario("chirp")
    result = chirp_executor.execute(scenario)
    assert chirp_executor.check_survivor(scenario, result) == ""


def test_chirp_exec_runs_the_staged_program_in_a_box(chirp_executor):
    scenario = Scenario(
        surface="chirp",
        identity="/O=UnivNowhere/CN=Fred",
        grants=[["globus:/O=UnivNowhere/CN=Fred", "rwlx"]],
        ops=[["put_exe", "/sim.exe"], ["exec", "/sim.exe"], ["get", "/out.dat"]],
    )
    result = chirp_executor.execute(scenario)
    assert result.verdict == "ok"
    outputs = dict((op, out) for op, *out in result.transcript[2:])
    assert outputs["exec"] == [0]
    assert outputs["get"][0][:2] == ["bytes", len(b"simulated\n")]
