from setuptools import setup

# Metadata lives in pyproject.toml; the version is repro.__version__.
setup()
