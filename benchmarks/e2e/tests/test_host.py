import os

from benchmarks.e2e import host


def fake_proc(tmp_path, processes):
    """``processes``: pid -> (comm, ppid, utime, stime, starttime, VmHWM kB)."""
    for pid, (comm, ppid, utime, stime, start, hwm) in processes.items():
        entry = tmp_path / str(pid)
        entry.mkdir()
        fields = ["S", str(ppid)] + ["0"] * 9 + [str(utime), str(stime)] + ["0"] * 6 + [str(start)]
        (entry / "stat").write_text(f"{pid} ({comm}) " + " ".join(fields) + " 0 0\n")
        (entry / "status").write_text(f"Name:\t{comm}\nVmPeak:\t  999 kB\nVmHWM:\t  {hwm} kB\n")
    (tmp_path / "self").mkdir()  # non-numeric entries are skipped
    return tmp_path


def test_tree_cpu_and_rss_sum_over_router_and_replicas(tmp_path):
    proc = fake_proc(
        tmp_path,
        {
            100: ("python3", 1, 50, 5, 1000, 2048),  # router / supervisor
            101: ("repro (worker) 1", 100, 300, 30, 1100, 4096),  # replica; awkward comm
            102: ("python3", 101, 7, 3, 1200, 1024),  # grandchild
            200: ("python3", 1, 9999, 9999, 900, 999999),  # a stranger
        },
    )
    tree = host.process_tree(100, proc)
    assert tree[0] == 100 and sorted(tree) == [100, 101, 102]
    assert host.cpu_ticks(tree, proc) == 50 + 5 + 300 + 30 + 7 + 3
    assert host.peak_rss_mb(tree, proc) == (2048 + 4096 + 1024) / 1024.0
    assert host.start_time(101, proc) == 1100
    assert host.start_time(999, proc) is None


def test_vanished_pids_are_skipped_not_fatal(tmp_path):
    proc = fake_proc(tmp_path, {100: ("python3", 1, 10, 1, 5, 512)})
    assert host.cpu_ticks([100, 4242], proc) == 11
    assert host.peak_rss_mb([100, 4242], proc) == 0.5


def test_readers_return_none_without_proc(tmp_path):
    missing = tmp_path / "no-proc"
    assert host.cpu_ticks([1], missing) is None
    assert host.peak_rss_mb([1], missing) is None
    assert host.process_tree(1, missing) == [1]


def test_live_proc_sees_this_process():
    tree = host.process_tree(os.getpid())
    assert tree[0] == os.getpid()
    assert host.cpu_ticks(tree) > 0
    assert host.peak_rss_mb(tree) > 1.0
    assert host.ticks_to_ms(os.sysconf("SC_CLK_TCK")) == 1000.0


def test_quiet_host_gate_labels_a_noisy_host(monkeypatch):
    monkeypatch.setattr(host, "load_average", lambda: 99.0)
    monkeypatch.setattr(host.time, "sleep", lambda _: None)
    seen = host.wait_for_quiet_host(max_wait_s=0.0)
    assert seen["noisy_host"] is True
    monkeypatch.setattr(host, "load_average", lambda: 0.1)
    assert host.wait_for_quiet_host(max_wait_s=30.0) == {
        "loadavg_1m": 0.1, "waited_s": 0.0, "noisy_host": False,
    }


def test_fingerprint_names_the_machine():
    info = host.fingerprint()
    assert {"nproc", "affinity", "python", "numpy"} <= set(info)
    assert "/" not in host.fingerprint_id(info)
