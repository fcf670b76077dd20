"""Independent reference implementations that tests pin the library against.

Code here is never imported by :mod:`repro`. Each oracle computes an
output the library also computes, in a deliberately different (slower,
more general) way, so a shared bug would have to be written twice.
"""
