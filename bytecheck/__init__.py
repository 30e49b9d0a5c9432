"""Byte oracle: what a fixed corpus of builds writes, and how two records differ.

    python -m bytecheck record OUT.json
    python -m bytecheck diff A.json B.json

Run from the root of a source checkout; neckforge is imported from its
``src/``. ``record`` builds the corpus in temporary directories and writes
one JSON record. The corpus is fixed: the golden builds that
tests/test_pipelines.py pins (four in memory, seven with their files),
the README's command line run in order in one directory, the first 14
artifact-roundtrip inputs of one benchmark seed, each written and
rechecked in its own directory, and the first 32 neck-sweep inputs of two
seeds (perfbench/workloads.py, read only). For every certificate, in
memory or written, the record holds its sha256 and every field,
quantities and claims included; for every written file its sha256 and
role, and every field of a JSON file; for every CLI command its exit code
and the lines it printed.

``diff`` lists every field that moved between two records, with its
signed and relative change where both values are numbers, every file
whose bytes moved, grouped by the role of the piece it stores, and every
status, exit code or output that moved. It exits 0 when nothing moved and 1
otherwise, so two records of one checkout must diff empty.
"""
