"""Threads: shared Task, own pid, §6's multi-threading claim."""


from repro.core.box import IdentityBox
from repro.kernel import Errno, OpenFlags, WaitResult


def test_thread_shares_memory(machine, alice):
    def worker(proc, args):
        yield proc.compute(us=5)
        proc.memory.write(proc.scratch["addr"], b"from thread")
        return 0

    def main(proc, args):
        addr = proc.alloc(16)
        tid = yield proc.sys.thread(worker)
        machine.process(tid).context.scratch["addr"] = addr
        result = yield proc.sys.waitpid()
        proc.scratch["joined"] = result
        proc.scratch["data"] = proc.read_buffer(addr, 11)
        return 0

    proc = machine.spawn(main, cred=alice)
    machine.run_to_completion()
    assert proc.context.scratch["data"] == b"from thread"
    assert isinstance(proc.context.scratch["joined"], WaitResult)


def test_thread_shares_descriptors(machine, alice, alice_task):
    machine.write_file(alice_task, "/home/alice/shared.txt", b"0123456789")
    chunks = []

    def reader_thread(proc, args):
        fd = int(args[0])
        buf = proc.alloc(4)
        n = yield proc.sys.read(fd, buf, 4)
        chunks.append(("thread", proc.read_buffer(buf, n)))
        return 0

    def main(proc, args):
        fd = yield proc.sys.open("/home/alice/shared.txt", OpenFlags.O_RDONLY)
        buf = proc.alloc(4)
        n = yield proc.sys.read(fd, buf, 4)
        chunks.append(("main", proc.read_buffer(buf, n)))
        yield proc.sys.thread(reader_thread, (str(fd),))
        yield proc.sys.waitpid()
        yield proc.sys.close(fd)
        return 0

    machine.spawn(main, cred=alice, cwd="/home/alice")
    machine.run_to_completion()
    # the offset is shared: the thread continues where main stopped
    assert chunks == [("main", b"0123"), ("thread", b"4567")]


def test_thread_exit_does_not_close_shared_fds(machine, alice, alice_task):
    machine.write_file(alice_task, "/home/alice/f", b"abcdef")
    results = []
    seen = {}

    def opener_thread(proc, args):
        seen["fd"] = yield proc.sys.open("/home/alice/f", OpenFlags.O_RDONLY)
        return 0  # exits; table must survive

    def main(proc, args):
        yield proc.sys.thread(opener_thread)
        yield proc.sys.waitpid()  # reaps the thread
        fd = seen["fd"]
        buf = proc.alloc(8)
        results.append((yield proc.sys.read(fd, buf, 8)))
        yield proc.sys.close(fd)
        return 0

    machine.spawn(main, cred=alice)
    machine.run_to_completion()
    assert results == [6]


def test_threads_communicate_through_a_pipe(machine, alice):
    received = []

    def producer(proc, args):
        wfd = int(args[0])
        addr = proc.alloc_bytes(b"tick")
        for _ in range(10):
            yield proc.sys.write(wfd, addr, 4)
        yield proc.sys.close(wfd)
        return 0

    def main(proc, args):
        rfd, wfd = yield proc.sys.pipe()
        yield proc.sys.thread(producer, (str(wfd),))
        buf = proc.alloc(64)
        while True:
            n = yield proc.sys.read(rfd, buf, 64)
            if n == 0:
                break
            received.append(proc.read_buffer(buf, n))
        # note: main still holds wfd; the producer closing its *shared*
        # reference means EOF arrives only when main also closes it — so
        # main closes right after spawning reads begin... simplest: close
        # before the loop would race; here the producer's close drops the
        # only registered end because the description is shared
        yield proc.sys.close(rfd)
        yield proc.sys.waitpid()
        return 0

    proc = machine.spawn(main, cred=alice)
    machine.run(max_steps=100_000)
    assert b"".join(received).startswith(b"tick")


def test_host_agents_cannot_thread(machine, alice_task):
    assert machine.kcall(alice_task, "thread", lambda p, a: iter(())) == -Errno.EINVAL


def test_thread_factory_must_be_callable(machine, alice):
    results = []

    def main(proc, args):
        results.append((yield proc.sys.thread("not-callable")))
        return 0

    machine.spawn(main, cred=alice)
    machine.run_to_completion()
    assert results == [-Errno.EINVAL]


# -- boxed threads ------------------------------------------------------------ #


def test_boxed_thread_inherits_identity(machine, alice):
    box = IdentityBox(machine, alice, "Threader")
    names = []

    def worker(proc, args):
        name = yield proc.sys.get_user_name()
        names.append(name)
        return 0

    def main(proc, args):
        yield proc.sys.thread(worker)
        yield proc.sys.waitpid()
        return 0

    box.spawn(main)
    machine.run_to_completion()
    assert names == ["Threader"]


def test_boxed_thread_shares_vfds(machine, alice):
    box = IdentityBox(machine, alice, "Threader")
    results = []

    def worker(proc, args):
        fd = int(args[0])
        addr = proc.alloc_bytes(b" world")
        results.append((yield proc.sys.write(fd, addr, 6)))
        return 0

    def main(proc, args):
        fd = yield proc.sys.open("out.txt", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
        addr = proc.alloc_bytes(b"hello")
        yield proc.sys.write(fd, addr, 5)
        yield proc.sys.thread(worker, (str(fd),))
        yield proc.sys.waitpid()
        yield proc.sys.close(fd)
        return 0

    proc = box.spawn(main)
    machine.run_to_completion()
    assert proc.exit_status == 0
    assert results == [6]
    data = machine.read_file(box.owner_task, f"{box.home}/out.txt")
    assert data == b"hello world"


def test_boxed_thread_exit_keeps_siblings_working(machine, alice):
    box = IdentityBox(machine, alice, "Threader")

    def short_lived(proc, args):
        yield proc.compute(us=1)
        return 0

    def main(proc, args):
        fd = yield proc.sys.open("keep.txt", OpenFlags.O_WRONLY | OpenFlags.O_CREAT)
        yield proc.sys.thread(short_lived)
        yield proc.sys.waitpid()
        # the fd must still be valid after the thread exited
        addr = proc.alloc_bytes(b"alive")
        proc.scratch["w"] = yield proc.sys.write(fd, addr, 5)
        yield proc.sys.close(fd)
        return 0

    proc = box.spawn(main)
    machine.run_to_completion()
    assert proc.context.scratch["w"] == 5


def test_boxed_threads_still_contained(machine, alice, alice_task):
    machine.write_file(alice_task, "/home/alice/secret", b"s", mode=0o600)
    box = IdentityBox(machine, alice, "Threader")
    results = []

    def hostile_thread(proc, args):
        results.append((yield proc.sys.open("/home/alice/secret", OpenFlags.O_RDONLY)))
        return 0

    def main(proc, args):
        yield proc.sys.thread(hostile_thread)
        yield proc.sys.waitpid()
        return 0

    box.spawn(main)
    machine.run_to_completion()
    assert results == [-Errno.EACCES]
