"""Taking the hypervisor's steal time out of the benchmark's clocks.

On a virtual machine the host can hold a virtual CPU while a process on it
is runnable; the guest reports that time as steal.  On a shared host it comes
in bursts that add a third or more to a round's elapsed time, while the
process's CPU time stays put.  The benchmark and its child processes run
pinned to one CPU, so the steal reported for that CPU over a span is the
time the span lost to the host.
"""

import os


def pin_to_one_cpu() -> int:
    """Restrict this process (and the children it starts) to one CPU: the
    highest-numbered one it may use.  Returns that CPU's number."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def steal_s() -> float:
    """Steal time since boot, in seconds, of the CPU ``pin_to_one_cpu`` picks,
    from /proc/stat; 0.0 where the kernel does not report it."""
    cpu = max(os.sched_getaffinity(0))
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == f"cpu{cpu}" and len(fields) > 8:
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except OSError:
        pass
    return 0.0
