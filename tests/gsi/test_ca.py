"""The toy certificate authority."""

import dataclasses

import pytest

from repro.gsi.ca import CertificateAuthority, CertificateError

SUBJECT = "/O=UnivNowhere/CN=Fred"


@pytest.fixture
def ca():
    return CertificateAuthority("UnivNowhere CA")


def test_issue_and_verify(ca):
    cert = ca.issue(SUBJECT)
    assert cert.subject == SUBJECT
    assert cert.issuer == "UnivNowhere CA"
    assert ca.verify(cert)


def test_serials_are_unique(ca):
    a = ca.issue(SUBJECT)
    b = ca.issue(SUBJECT)
    assert a.serial != b.serial


def test_subject_must_be_a_dn(ca):
    with pytest.raises(CertificateError):
        ca.issue("not-a-dn")


def test_tampered_subject_fails(ca):
    cert = ca.issue(SUBJECT)
    forged = dataclasses.replace(cert, subject="/O=UnivNowhere/CN=Mallory")
    assert not ca.verify(forged)


def test_tampered_signature_fails(ca):
    cert = ca.issue(SUBJECT)
    forged = dataclasses.replace(cert, signature="0" * 64)
    assert not ca.verify(forged)


def test_foreign_ca_rejected(ca):
    other = CertificateAuthority("Other CA")
    cert = other.issue(SUBJECT)
    assert not ca.verify(cert)


def test_impersonating_ca_name_fails(ca):
    # an attacker who spins up a CA with the same *name* still lacks the
    # secret, so signatures disagree — names are not trust anchors, keys are
    evil = CertificateAuthority("UnivNowhere CA", _secret=b"attacker-guess")
    cert = evil.issue(SUBJECT)
    assert not ca.verify(cert)


def test_same_ca_name_same_secret_is_deterministic():
    # deterministic keying keeps simulations reproducible
    a = CertificateAuthority("X CA")
    b = CertificateAuthority("X CA")
    assert a.verify(b.issue("/O=X/CN=U"))


def test_require_valid(ca):
    cert = ca.issue(SUBJECT)
    assert ca.require_valid(cert) == SUBJECT
    forged = dataclasses.replace(cert, subject="/O=X/CN=E")
    with pytest.raises(CertificateError):
        ca.require_valid(forged)
