"""The repo benchmark (see README.md); ``run.py`` is its command."""
