"""The code-line count of ``tests/code_lines.py`` on a small source."""

from code_lines import count

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring,
        over two lines."""
        return max(
            1,
            os.sep.count("/"),
        )
'''


def test_count_skips_docstrings_comments_and_blank_lines():
    # code lines: the import, the class and def lines, and the four lines of the call
    assert count(SOURCE) == (7, 17)
