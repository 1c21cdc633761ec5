"""The one writer and reader of darkfocus's text files.

A table is rows of floats split by blanks, each in repr form, so that a file
reads back to the same bits, after the header lines its caller hands to
write_table; the caller parses the header lines that read_table returns.
The row loops run in trajio.c when darkfocus._compiled builds it, and
otherwise in the Python reference writer and numpy.loadtxt, which give the
same text and the same bits.  The compiled writer formats a table's blocks
of _ROWS_PER_BLOCK rows on the threads of darkfocus._parallel and writes
them in order.  Text the compiled parser does not read goes
to numpy.loadtxt as well, which raises the errors.  The compiled reader
parses a table larger than _READ_BYTES in pieces, one per usable core, on
the threads of darkfocus._parallel; the array is the same at every width.
It parses the rows straight into arrays of their final size and, when the
caller asks for the first column apart (darkfocus.dynamics.load_trajectory
does, for t and x y z), into that column and the (n, k) array of the next
k columns, dropping any after them; so a read holds the arrays it returns,
a read buffer per piece, and no copy of the table.
A report is key=value lines.
"""

import ctypes
import functools
import os

import numpy as np

from . import _compiled, _parallel

_ROWS_PER_BLOCK = 8192
# longest number df_format_rows writes, with the blank or line end after it
_NUMBER_BYTES = 25
_READ_BYTES = 1 << 20


def _python_rows(rows):
    """The reference row writer: the text of a 2-D float array, every float
    in repr form."""
    return "".join([" ".join(map(repr, row)) + "\n" for row in rows.tolist()])


def _compiled_rows(library, rows):
    """trajio.c's df_format_rows behind the reference writer's signature."""
    rows = np.ascontiguousarray(rows, dtype=float)
    n, m = rows.shape
    text = np.empty(n * m * _NUMBER_BYTES, dtype=np.uint8)
    size = library.df_format_rows(rows, n, m, *_compiled.shortest_tables(), text, len(text))
    if size < 0:
        raise RuntimeError(f"df_format_rows cannot write {n} rows of {m} columns")
    return str(memoryview(text)[:size], "ascii")


def write_table(path, rows, *header):
    """Write the header lines, then the rows, to a new text file at path.

    rows is a 2-D float array, written in blocks of _ROWS_PER_BLOCK to bound
    the memory the text takes, or an iterable of 2-D float arrays, written in
    order.  The compiled writer formats the blocks on
    darkfocus._parallel.ordered_map, which takes the next block from rows
    only when fewer than one per usable core are pending: a lazy iterable
    keeps at most that many and one more in memory."""
    if isinstance(rows, np.ndarray):
        # a list, so that a table of one block starts no thread
        rows = [rows[start:start + _ROWS_PER_BLOCK]
                for start in range(0, len(rows), _ROWS_PER_BLOCK)]
    library = _compiled.load()
    if library is None:
        texts = map(_python_rows, rows)
    else:
        _compiled.shortest_tables()  # built once, before any thread reads it
        texts = _parallel.ordered_map(functools.partial(_compiled_rows, library), rows)
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in header)
        fh.writelines(texts)


def _count_lines(fh, start, stop, text):
    """The number of line ends in the bytes [start, stop) of the open binary
    file fh, read through the uint8 buffer text."""
    lines, left = 0, stop - start
    fh.seek(start)
    while left and (read := fh.readinto(text[:left])):
        lines += int(np.count_nonzero(text[:read] == ord("\n")))
        left -= read
    return lines


def _parse_rows(fh, start, stop, text, library, pow5, comma, ncols, first, out):
    """Parse the rows of ncols numbers in the bytes [start, stop) of the open
    binary file fh with df_parse_rows, in blocks of the uint8 buffer text:
    the first first.shape[1] numbers of a row into first, the next
    out.shape[1] into out, the rest read and dropped.  Returns the number of
    rows, or -1 when df_parse_rows cannot read them or one line fills a
    whole block."""
    nrows = ctypes.c_long(0)
    done = kept = 0
    fh.seek(start)
    left = stop - start
    while True:
        read = fh.readinto(text[kept:kept + left])
        left -= read
        end = kept + read
        used = library.df_parse_rows(text, end, read == 0, comma, pow5, ncols,
                                     first[done:], first.shape[1], out[done:], out.shape[1],
                                     len(out) - done, ctypes.byref(nrows))
        if used < 0:
            return -1
        done += nrows.value
        if read == 0:
            return done
        kept = end - used
        if kept == len(text):
            return -1
        text[:kept] = text[used:end]


def _on_piece(path, step, piece, *args):
    """step(fh, start, stop, text, *args) on a handle and a buffer of its own,
    for one piece (start, stop) of path parsed on a thread."""
    with open(path, "rb") as fh:
        return step(fh, *piece, np.empty(_READ_BYTES, dtype=np.uint8), *args)


def close_gaps(arrays, starts, lengths):
    """Move the pieces of rows starts[k]:starts[k] + lengths[k] of the C-contiguous
    2-D arrays down to follow one another from row 0; returns the rows filled.
    Row slices of the flat arrays are one-dimensional, so numpy moves them in
    place, lowest address first, without a temporary."""
    flats = [(array.reshape(-1), array.shape[1]) for array in arrays]
    done = 0
    for start, rows in zip(starts, lengths):
        if start != done:
            for flat, m in flats:
                flat[m * done:m * (done + rows)] = flat[m * start:m * (start + rows)]
        done += rows
    return done


def _compiled_read(library, path, n_header, comma, ncols, split=None):
    """The data rows after the first n_header lines, ncols numbers each,
    parsed by trajio.c's df_parse_rows in blocks of _READ_BYTES, as the 2-D
    array or, with split=k, the pair of read_table; None when the rows are
    not plain decimal numbers in the forms it reads, and the reference
    reader must decide.  A first pass counts the lines, so the rows go
    straight into arrays of their final size: with split, column 0 into a
    column of its own and columns 1 to k into an (n, k) array, and the
    columns after them nowhere.  Data larger than _READ_BYTES is cut, each
    cut just after a line end, into one piece per _READ_BYTES up to one per
    usable core; the pieces are counted and then parsed on
    darkfocus._parallel's threads, each into its own rows of the arrays,
    which are compacted in place when blank lines leave a piece short."""
    pow5 = _compiled.decimal_table()
    with open(path, "rb") as fh:
        for _ in range(n_header):
            # a lone CR ends a line in the text-mode header scan, not here
            if b"\r" in fh.readline().removesuffix(b"\r\n"):
                return None
        start = fh.tell()
        stop = fh.seek(0, os.SEEK_END)
        n = min(_parallel.width(), -(-(stop - start) // _READ_BYTES))
        cuts = [start]
        for k in range(1, n):
            fh.seek(start + (stop - start) * k // n)
            cuts.append(fh.tell() + len(fh.readline()))
    cuts.append(stop)
    # a cut lands on the end of the data when no line end follows it
    pieces = [piece for piece in zip(cuts, cuts[1:]) if piece[0] < piece[1]]
    lines = list(_parallel.ordered_map(
        functools.partial(_on_piece, path, _count_lines), pieces))
    lines[-1] += 1  # only the last piece can end without a line end
    offsets = np.cumsum([0, *lines]).tolist()
    first = np.empty((offsets[-1], 0 if split is None else 1))
    data = np.empty((offsets[-1], ncols if split is None else split))
    parsed = list(_parallel.ordered_map(
        lambda k: _on_piece(path, _parse_rows, pieces[k], library, pow5, comma, ncols,
                            first[offsets[k]:offsets[k + 1]], data[offsets[k]:offsets[k + 1]]),
        range(len(pieces))))
    if min(parsed) < 0:
        return None
    done = close_gaps((first, data), offsets, parsed)
    if not done:
        return None
    return data[:done] if split is None else (first[:done, 0], data[:done])


def read_table(path, split=None):
    """(header, rows) of a text table.  The header is the lines, stripped,
    before the first row: blank lines, '#' comments and lines of column
    names.  rows is the 2-D float array of the lines from there on, split by
    blanks or, when the first row has a comma, by commas; (0, 0) when the
    file has no row.  With split=k and a table of more than k columns, rows
    is instead the pair (column 0 as a 1-D array, columns 1 to k as a
    C-contiguous (n, k) array), with the bits of the same slices of the 2-D
    array; the columns after them are read and dropped, so that only the
    two arrays are held."""
    header = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            tokens = line.replace(",", " ").split()
            # a line of column names opens with an identifier float() cannot read
            names = tokens and tokens[0].isidentifier() and tokens[0].lower() not in (
                "nan", "inf", "infinity")
            if line and not line.startswith("#") and not names:
                break
            header.append(line)
        else:
            return header, np.empty((0, 0))
    comma = "," in line
    if split is not None and len(tokens) <= split:
        split = None
    library = _compiled.load()
    rows = (None if library is None
            else _compiled_read(library, path, len(header), comma, len(tokens), split))
    if rows is None:
        rows = np.loadtxt(path, delimiter="," if comma else None, skiprows=len(header),
                          ndmin=2)
        if split is not None and rows.shape[1] > split:
            rows = rows[:, 0].copy(), rows[:, 1:split + 1].copy()
    return header, rows


def _value_text(value):
    if isinstance(value, tuple):
        return " ".join(map(_value_text, value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_values(path, values):
    """Write the dict values as key=value lines, in order, to a new file:
    floats in repr form, so that float() reads back the same bits; other
    values as str writes them; tuples as their items split by blanks."""
    with open(path, "w") as fh:
        fh.writelines(f"{key}={_value_text(value)}\n" for key, value in values.items())
