import re
from pathlib import Path

import dwigner

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_api_names():
    """Backticked names of the bullet list under README's "Library API" heading."""
    section = README.read_text(encoding="utf-8").split("### Library API\n", 1)[1]
    bullets = section.split("\n* ", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"`(\w+)`", bullets)


def test_all_matches_readme_library_api():
    names = readme_api_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(dwigner.__all__)
    assert all(hasattr(dwigner, name) for name in names)
