"""`python -m mixcast` and the `mixcast` command: the command-line
pipeline, on a steady glibc heap.

glibc raises its mmap threshold to the size of the largest block freed so
far. A `train` run frees no large block early, so it would keep mapping,
and faulting in, each step's few-hundred-KB arrays afresh. Fixed
thresholds keep those arrays on the heap. They are set here only, so
importing mixcast leaves the allocator alone; where libc cannot be
loaded, nothing changes.
"""
import ctypes

# mallopt parameters of <malloc.h>, and the values set for them.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
TRIM_THRESHOLD = 64 << 20
MMAP_THRESHOLD = 16 << 20


def steady_heap():
    """Fix glibc's mmap and trim thresholds; without glibc, do nothing."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main():
    steady_heap()
    from .cli import main as cli_main

    cli_main(prog_name="mixcast")


if __name__ == "__main__":
    main()
