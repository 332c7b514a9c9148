#!/usr/bin/env python3
"""Instruction-pointer sampling profiler for hosts without `perf`.

Attaches to a running process with ptrace a few hundred times per second,
reads the instruction pointer of every running thread, detaches, and prints
the share of samples per function of BINARY (symbols from `nm -C`). Samples
outside BINARY's text (libc: memcpy, malloc, ...) are reported as
`<outside BINARY>`. No call stacks: a sample counts toward the function it
landed in, so inlined callees count toward their caller.

Usage:
    scripts/ip_profile.py PID SECONDS BINARY [TOP]

Example (profile the detailed core on the memory-bound workload):
    ./e2ebench/target/release/ltp-e2ebench --workload detail_membound \\
        --seconds 30 --trace 0 > /dev/null &
    sleep 5; scripts/ip_profile.py $! 15 e2ebench/target/release/ltp-e2ebench

Needs permission to ptrace the target (same user, and
/proc/sys/kernel/yama/ptrace_scope 0 where Yama is enabled). Each sample
stops the target for a few microseconds; at ~300 samples/s that adds well
under 1 % to its run time.
"""

import bisect
import collections
import ctypes
import os
import subprocess
import sys
import time

PTRACE_GETREGS, PTRACE_ATTACH, PTRACE_DETACH = 12, 16, 17
WALL = 0x40000000  # __WALL: wait for any child, threads included


class Regs(ctypes.Structure):
    """x86-64 `struct user_regs_struct`."""

    _fields_ = [
        (name, ctypes.c_ulonglong)
        for name in (
            "r15 r14 r13 r12 rbp rbx r11 r10 r9 r8 rax rcx rdx rsi rdi "
            "orig_rax rip cs eflags rsp ss fs_base gs_base ds es fs gs"
        ).split()
    ]


def load_base(pid, binary):
    """Load address of BINARY's file offset 0 in PID (PIE-aware)."""
    name = os.path.realpath(binary)
    with open(f"/proc/{pid}/maps") as maps:
        for line in maps:
            parts = line.split()
            if len(parts) >= 6 and os.path.realpath(parts[5]) == name:
                start = int(parts[0].split("-")[0], 16)
                return start - int(parts[2], 16)
    sys.exit(f"ip_profile: {binary} is not mapped into process {pid}")


def text_symbols(binary):
    """Sorted (address, size, demangled name) of BINARY's text symbols."""
    out = subprocess.run(
        ["nm", "-C", "--defined-only", "-S", binary],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    syms = []
    for line in out.splitlines():
        # "address size type name"; symbols without a size have no size field.
        parts = line.split(" ", 3)
        if len(parts) == 4 and len(parts[1]) > 1 and parts[2] in ("t", "T", "w", "W"):
            syms.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
    syms.sort()
    return syms


def main():
    if len(sys.argv) not in (4, 5):
        sys.exit(__doc__)
    pid, seconds, binary = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3]
    top = int(sys.argv[4]) if len(sys.argv) == 5 else 40
    libc = ctypes.CDLL("libc.so.6", use_errno=True)
    libc.ptrace.restype = ctypes.c_long
    libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]

    base = load_base(pid, binary)
    syms = text_symbols(binary)
    starts = [s[0] for s in syms]
    outside = f"<outside {os.path.basename(binary)}>"

    def name_of(ip):
        offset = ip - base
        i = bisect.bisect_right(starts, offset) - 1
        if i >= 0 and offset < syms[i][0] + max(syms[i][1], 1):
            return syms[i][2]
        return outside

    counts = collections.Counter()
    deadline = time.time() + seconds
    while time.time() < deadline:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except FileNotFoundError:
            break
        for tid in map(int, tids):
            try:
                with open(f"/proc/{pid}/task/{tid}/stat") as stat:
                    state = stat.read().rsplit(")", 1)[1].split()[0]
            except OSError:
                continue
            if state != "R" or libc.ptrace(PTRACE_ATTACH, tid, None, None) != 0:
                continue
            os.waitpid(tid, WALL)
            regs = Regs()
            if libc.ptrace(PTRACE_GETREGS, tid, None, ctypes.byref(regs)) == 0:
                counts[name_of(regs.rip)] += 1
            libc.ptrace(PTRACE_DETACH, tid, None, None)
        time.sleep(0.003)

    total = sum(counts.values())
    print(f"samples {total}")
    for name, n in counts.most_common(top):
        print(f"{100 * n / max(total, 1):5.1f}%  {name[:160]}")


if __name__ == "__main__":
    main()
