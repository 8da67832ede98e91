"""Time, in a fresh interpreter, the two in-process parts of one CLI query.

Usage: python cli_probe.py TEXT_FILE PATTERN_FILE ALPHA SHIFT_S K

Reads TEXT_FILE the way ``wfr search`` does (``open(..., "rb").read()``) and
runs the same ``wfr.search`` call on it. Prints one JSON line with the
``[start_ns, end_ns]`` of the read and of the search, on the clock of
``time.perf_counter_ns``, and the occurrence count.
"""

import json
import sys
import time

from wfr import FilterParams, search


def main(text_file, pattern_file, alpha, shift_s, k):
    with open(pattern_file, "rb") as fh:
        pattern = fh.read()
    params = FilterParams(alpha=int(alpha), shift_s=int(shift_s))
    read_start = time.perf_counter_ns()
    with open(text_file, "rb") as fh:
        text = fh.read()
    search_start = time.perf_counter_ns()
    outcome = search(pattern, text, params=params, k=int(k))
    search_end = time.perf_counter_ns()
    print(json.dumps({
        "read": [read_start, search_start],
        "search": [search_start, search_end],
        "occurrences": outcome.occurrence_count,
    }))


if __name__ == "__main__":
    main(*sys.argv[1:])
