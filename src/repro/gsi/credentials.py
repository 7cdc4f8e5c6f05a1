"""User credential wallets and proxy delegation.

GSI's single sign-on works by delegating short-lived *proxy* credentials
signed by the user's long-lived certificate; a service verifying a proxy
walks the chain back to a trusted CA.  The chain walk is what matters to
the reproduction (Chirp's ``globus`` authenticator performs it), so proxies
here are HMAC-chained the same way the CA signs end-entity certificates.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field

from .ca import Certificate, CertificateAuthority, CertificateError


@dataclass(frozen=True)
class ProxyCredential:
    """A short-lived credential derived from a user certificate.

    ``depth`` counts delegations; the subject of a proxy is the end
    entity's subject (GSI appends ``/CN=proxy`` components — we keep the
    subject stable and track depth separately for clarity).
    """

    certificate: Certificate
    depth: int
    signature: str  #: HMAC by the holder's proxy secret chain


@dataclass
class UserCredentials:
    """What a grid user holds: a certificate and the ability to sign."""

    certificate: Certificate
    _secret: bytes = field(default_factory=lambda: b"", repr=False)

    def __post_init__(self) -> None:
        if not self._secret:
            self._secret = hashlib.sha256(
                f"user-secret:{self.certificate.subject}:{self.certificate.serial}".encode()
            ).digest()

    @property
    def subject(self) -> str:
        return self.certificate.subject

    def _proxy_sig(self, depth: int) -> str:
        body = f"{self.certificate.signature}:{depth}".encode()
        return hmac.new(self._secret, body, hashlib.sha256).hexdigest()

    def make_proxy(self, depth: int = 1) -> ProxyCredential:
        """Single sign-on step: mint a delegatable proxy."""
        if depth < 1:
            raise CertificateError("proxy depth must be >= 1")
        return ProxyCredential(
            certificate=self.certificate, depth=depth, signature=self._proxy_sig(depth)
        )

    def proxy_is_mine(self, proxy: ProxyCredential) -> bool:
        """Verify a proxy chains back to this user (server-side helper)."""
        return hmac.compare_digest(proxy.signature, self._proxy_sig(proxy.depth))


@dataclass
class CredentialStore:
    """Server-side trust anchors: which CAs we accept, plus proxy checks.

    A Chirp server holds one of these; verifying a login means (1) the
    chain ends at a trusted CA, (2) the proxy signature matches the user
    secret registered at proxy-issuance time (the simulation's stand-in
    for public-key verification, which needs no shared registry in real
    GSI).
    """

    trusted_cas: dict[str, CertificateAuthority] = field(default_factory=dict)
    #: subject -> user wallet; populated when users are provisioned, so the
    #: server can verify proxy signatures without real asymmetric crypto
    _known_users: dict[str, UserCredentials] = field(default_factory=dict)

    def trust(self, ca: CertificateAuthority) -> None:
        self.trusted_cas[ca.name] = ca

    def register_user(self, wallet: UserCredentials) -> None:
        self._known_users[wallet.subject] = wallet

    def verify_proxy(self, proxy: ProxyCredential) -> str:
        """Full chain validation; returns the proven subject DN."""
        ca = self.trusted_cas.get(proxy.certificate.issuer)
        if ca is None:
            raise CertificateError(
                f"issuer {proxy.certificate.issuer!r} is not a trusted CA"
            )
        subject = ca.require_valid(proxy.certificate)
        wallet = self._known_users.get(subject)
        if wallet is None or not wallet.proxy_is_mine(proxy):
            raise CertificateError(f"proxy for {subject!r} failed verification")
        return subject


def provision_user(
    ca: CertificateAuthority, store: CredentialStore, subject: str
) -> UserCredentials:
    """Issue a certificate for ``subject`` and register it with a server's
    trust store (the offline 'get a certificate' ceremony)."""
    wallet = UserCredentials(certificate=ca.issue(subject))
    store.register_user(wallet)
    return wallet
