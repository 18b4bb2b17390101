#!/usr/bin/env bash
# Public-surface guard. Lists every `pub` fn/struct/enum/trait/const/
# type/static in a library crate (crates/*/src, binaries excluded) that
# has no caller outside its own crate, and fails when one is not on the
# allowlist below or when an allowlist entry no longer applies.
#
# An item has an outside caller when its name appears in another crate,
# in its own crate's binaries, examples or integration tests, in tests/,
# examples/ or voltbench/src, in a doc-test block, or in the README's
# Rust example. A `pub use` re-export is not a caller. A type or trait
# that a public signature of its own crate names (a `pub fn`'s
# arguments or result, a `pub` field or enum variant, a public trait's
# items, an impl's associated type) is surface by construction: rustc's
# private_interfaces lint keeps that set honest, and the item holding
# the signature is scanned in its own right.
#
# The scan is word-level, so a method with a common name (`new`,
# `solve`) always looks called; it catches the uniquely named item
# nobody calls, which rustc's dead_code lint cannot see while the item
# is `pub`. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

# `<file> <item>  <why it stays pub with no outside caller>`
ALLOW="
crates/uarch/src/disruptive.rs DisruptiveEvent  serialized variant names; clippy's enum_variant_names would rename them were it crate-private
"

perl -e '
use strict;
use warnings;
my ($allow) = @ARGV;
my %allow;
for (split /\n/, $allow) {
    next unless /\S/;
    my ($file, $item) = split " ";
    $allow{"$file $item"} = 0;
}

sub slurp { open my $fh, "<", $_[0] or die "$_[0]: $!"; local $/; <$fh> }
sub crate_of { $_[0] =~ m{^crates/([^/]+)/} ? $1 : "" }
sub words { map { $_ => 1 } $_[0] =~ /\b([A-Za-z_][A-Za-z0-9_]*)\b/g }

my @lib = grep { !m{/src/bin/} && !m{/src/main\.rs$} }
    split /\n/, `find crates/*/src -name "*.rs" | sort`;
my %is_lib = map { $_ => 1 } @lib;
my @others = split /\n/,
    `find crates/*/src/bin crates/*/src/main.rs crates/*/examples crates/*/tests tests examples voltbench/src -name "*.rs" 2>/dev/null | sort`;

# Library source with each top-level `#[cfg(test)] mod` blanked out
# (line numbers kept).
my %src;
for my $f (@lib) {
    my ($skip, $prev, @out) = (0, "");
    for (split /\n/, slurp($f)) {
        $skip = 1 if /^mod \w+ \{/ && $prev =~ /^#\[cfg\(test\)\]/;
        $prev = $_;
        push @out, $skip ? "" : $_;
        $skip = 0 if $skip && /^\}/;
    }
    $src{$f} = \@out;
}

# Words each file names, with re-exports stripped.
my %words;
sub index_text {
    my ($key, $text) = @_;
    $text =~ s/\bpub\s+use\b[^;]*;//g;
    $words{$key} = { words($text) };
}
index_text($_, slurp($_)) for @lib, @others;

# Doc-test blocks compile as outside code, whichever crate holds them.
my $doctests = "";
for my $f (@lib) {
    my $in = 0;
    for (split /\n/, slurp($f)) {
        next unless s{^\s*//[/!] ?}{};
        if (/^```(.*)$/) { $in = $in ? 0 : ($1 eq "" || $1 =~ /^(rust|no_run|should_panic)/); next }
        $doctests .= "$_\n" if $in;
    }
}
my $readme = slurp("README.md");
$doctests .= $1 while $readme =~ /^\s*```rust[^\n]*\n(.*?)^\s*```/msg;
index_text("<doc examples>", $doctests);

# Words each crate names in its public signatures: those of its free
# `pub` items and of the members of its `pub` types (or of impls on
# types it does not define). A type does not count as named by its own
# definition or impl blocks.
my (%type_vis, %sig);
for my $f (@lib) {
    for (@{ $src{$f} }) {
        $type_vis{ crate_of($f) }{$2} = defined $1
            if /^\s*(pub\s+)?(?:pub\(crate\)\s+)?(?:struct|enum|trait|union|type)\s+(\w+)/;
    }
}
for my $f (@lib) {
    my $crate = crate_of($f);
    # `$trait`: inside a trait or a trait impl, where members carry no
    # `pub` of their own.
    my ($owner, $public, $trait, $open) = ("", 0, 0, 0);
    for (@{ $src{$f} }) {
        my $line = $_ =~ s{//.*}{}r;
        if ($line =~ /^(pub\s+)?(struct|enum|trait|union)\s+(\w+)/) {
            ($owner, $public, $trait) = ($3, defined $1, $2 eq "trait");
        } elsif ($line =~ /^impl\b(?:<[^>]*>)?\s+(?:([\w:]+(?:<[^>]*>)?)\s+for\s+)?(\w+)/) {
            ($owner, $public, $trait) = ($2, $type_vis{$crate}{$2} // 1, defined $1);
        } elsif ($line =~ /^[^\s#}]/) {
            ($owner, $public, $trait) = ("", 0, 0);
        }
        # Items and impl headers run to their `{` or `;`; a field or
        # variant is one line.
        if ($line =~ /^pub\s+(?:fn|const|static|type)\b/ || $public && $line =~ /^impl\b/
            || $public && $line =~ /^\s+pub\s+(?:fn|const|type)\s/
            || $public && $trait && $line =~ /^\s+(?:fn|type)\s/) {
            $open = 1;
        } elsif ($public && $line =~ /^\s+(?:pub\s+\w+\s*:|[A-Z]\w*\s*[({,])/) {
            $open = 2;
        }
        next unless $open;
        my %w = words($line);
        delete $w{$owner};
        $sig{$crate}{$_} = 1 for keys %w;
        $open = 0 if $open == 2 || $line =~ /[{;]\s*$/;
    }
}

my $kinds = qr/(?:const\s+fn|unsafe\s+fn|fn|struct|enum|trait|const|type|static|union)/;
my @unused;
for my $f (@lib) {
    my $crate = crate_of($f);
    my $n = 0;
    for (@{ $src{$f} }) {
        $n++;
        next unless /^\s*pub\s+($kinds)\s+([A-Za-z_][A-Za-z0-9_]*)/;
        my ($kind, $name) = ($1, $2);
        next if $kind =~ /^(?:struct|enum|trait|union|type)$/ && $sig{$crate}{$name};
        next if grep { !($is_lib{$_} && crate_of($_) eq $crate) && $words{$_}{$name} } keys %words;
        if (exists $allow{"$f $name"}) { $allow{"$f $name"}++; next }
        push @unused, "$f:$n: pub $kind $name";
    }
}
my @stale = grep { !$allow{$_} } sort keys %allow;
print "pub item with no caller outside its crate: $_\n" for @unused;
print "allowlist entry with no matching uncalled pub item: $_\n" for @stale;
exit(@unused || @stale ? 1 : 0);
' "$ALLOW"
echo "public surface: every pub item has an outside caller or an allowlist reason"
