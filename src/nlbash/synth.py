"""Deterministic synthetic NL-to-command corpora for demos and benchmarks.

Real command-line corpora are not bundled with this package, so tests and
demo scripts draw from a generator instead: many task families, each with
English phrasings and one or more command templates over shared argument
slots. Several things make the corpus behave like real data rather than a
lookup table: family weights follow a skewed head/tail distribution,
sibling families differ by one flag but share their phrasing stubs,
phrasings are sampled Zipf-style so rare wordings show up with little
support, argument pools are large enough that test slot values are
usually unseen, and utterances pick up filler words, synonym swaps, and
occasional word drops. Everything is seeded: the same seed always yields
the same corpus.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .corpus import Example


@dataclass(frozen=True)
class TaskFamily:
    phrasings: tuple[str, ...]
    commands: tuple[str, ...]  # every entry becomes a reference
    weight: float = 1.0


def _gen_dirs() -> tuple[str, ...]:
    base = ["/tmp", "/var/log", "/home/user", "/etc", ".", "~/projects", "/usr/share", "./build", "/opt/data"]
    base += [f"/data/proj{i}" for i in range(1, 13)]
    base += [f"/srv/app{i}" for i in range(1, 9)]
    base += [f"~/work/task{i}" for i in range(1, 9)]
    return tuple(base)


def _gen_files() -> tuple[str, ...]:
    stems = ("notes", "report", "data", "main", "access", "config", "summary", "index", "trace", "audit")
    exts = ("txt", "csv", "log", "c", "py", "yaml", "conf", "md")
    return tuple(f"{stem}.{ext}" for stem in stems for ext in exts)


_DIRS = _gen_dirs()
_NAMES = tuple(f"'*.{ext}'" for ext in ("log", "py", "txt", "c", "bak", "tmp", "csv", "json", "html", "gz", "o", "md")) + ("core", "'backup-*'")
_FILES = _gen_files()
_FILES2 = tuple(f"{stem}.old" for stem in ("backup", "summary", "copy", "archive", "draft", "save")) + ("out.txt", "dup.csv")
_ARCHIVES = tuple(f"{stem}.tar.gz" for stem in ("backup", "site", "logs", "data", "photos", "release", "dump", "home"))
_PATTERNS = (
    "error", "TODO", "warning", "admin", "failed", "timeout", "debug", "exception",
    "refused", "denied", "critical", "fatal", "login", "logout", "token", "session",
)
_PROCS = ("nginx", "postgres", "firefox", "java", "sshd", "redis", "mysqld", "dockerd", "celery", "gunicorn", "chrome", "node")
_USERS = ("root", "alice", "deploy", "www-data", "backup", "jenkins", "admin", "guest")
_HOSTS = tuple(f"192.168.{a}.{b}" for a, b in ((0, 7), (0, 12), (1, 5), (1, 20), (2, 2), (10, 10))) + (
    "example.com", "backup.local", "db.internal", "mirror.net",
)
_URLS = tuple(f"http://example.com/pkg{i}.tar.gz" for i in range(1, 6)) + (
    "http://mirror.net/image.iso", "http://files.io/d.zip", "http://cdn.example.com/tool.deb",
)
_NUMS = tuple(str(n) for n in range(1, 200))

# Shared filler noise; both training and test utterances pick these up.
_PREFIXES = (
    "please ",
    "how do i ",
    "i need to ",
    "i want to ",
    "help me ",
    "what is the command to ",
    "bash command to ",
    "quickly ",
)
_SUFFIXES = (
    " on linux",
    " in bash",
    " from the terminal",
    " on this machine",
    " if possible",
)

# Seeded synonym swaps, each word with probability _SYNONYM_RATE; rare
# wordings are how real users surprise a retrieval baseline.
_SYNONYM_RATE = 0.35
_SYNONYMS: dict[str, tuple[str, ...]] = {
    "show": ("display", "print", "output", "reveal"),
    "list": ("enumerate", "show me"),
    "print": ("display", "write out"),
    "find": ("locate", "hunt for", "track down"),
    "search": ("scan", "comb", "look through"),
    "delete": ("erase", "purge", "get rid of", "drop"),
    "remove": ("erase", "purge", "wipe"),
    "files": ("items", "entries", "file entries"),
    "file": ("document", "item"),
    "directory": ("folder", "dir"),
    "folder": ("directory", "dir"),
    "under": ("beneath", "within", "inside"),
    "below": ("beneath", "under"),
    "count": ("tally", "total up", "add up"),
    "lines": ("rows", "line entries"),
    "contents": ("text", "insides"),
    "compress": ("squash", "zip up"),
    "archive": ("tarball", "bundle"),
    "extract": ("unpack", "expand"),
    "copy": ("duplicate", "clone", "replicate"),
    "kill": ("terminate", "end"),
    "process": ("task", "program"),
    "processes": ("tasks", "programs"),
    "modified": ("changed", "edited", "updated"),
    "create": ("make", "set up"),
    "empty": ("blank", "zero-byte"),
    "running": ("active", "live"),
    "disk": ("storage", "drive"),
    "space": ("room", "capacity"),
    "memory": ("ram",),
    "machine": ("box", "server", "system"),
    "connect": ("log in", "remote in"),
    "download": ("fetch", "pull down", "grab"),
    "append": ("add", "tack on"),
    "compare": ("diff", "check the differences between"),
    "checksum": ("hash", "digest"),
    "owner": ("owning user", "ownership"),
    "executable": ("runnable",),
    "newest": ("most recent", "latest"),
    "sorted": ("ordered", "arranged"),
    "biggest": ("largest", "heaviest"),
    "larger": ("bigger", "heavier"),
    "seconds": ("secs",),
    "permissions": ("mode", "access rights"),
}


def _siblings(
    stubs: tuple[str, ...],
    command: str,
    weight: float,
    **axes: tuple[tuple[str, str], ...],
) -> tuple[TaskFamily, ...]:
    """Build sibling families from shared phrasing stubs.

    Each keyword axis gives (phrase, command part) options for the
    placeholder it names. Every combination of options, first axis
    outermost, is one family: each phrase replaces ``{axis}`` in every
    stub, and each command part fills ``{axis}`` in ``command``. Siblings
    share most vocabulary and differ in a few words, the way real corpora
    distinguish ``ls -lt`` from ``ls -lS``; their weights cycle through a
    skew so that support is uneven.
    """
    skew = (2.2, 1.0, 0.45)
    families = []
    for n, combo in enumerate(itertools.product(*axes.values())):
        phrasings = []
        for stub in stubs:
            for name, (phrase, _) in zip(axes, combo):
                stub = stub.replace("{%s}" % name, phrase)
            phrasings.append(" ".join(stub.split()))
        parts = {name: part for name, (_, part) in zip(axes, combo)}
        families.append(
            TaskFamily(tuple(phrasings), (command.format(**parts),), weight * skew[n % 3])
        )
    return tuple(families)


# Combinatorial find micro-families: scope x matcher x action. Dozens of
# templates share their phrasing stubs and compete for the same queries, so
# the correct flag combination has thin support — as in real corpora, where
# most find variants occur a handful of times.
_FIND_THEME = _siblings(
    (
        "find files {matcher} under {dir} {scope} {action}",
        "search {dir} for files {matcher} {scope} {action}",
        "list files {matcher} below {dir} {scope} {action}",
        "show files {matcher} in {dir} {scope} {action}",
    ),
    "find {{dir}} {scope}{matcher}{action}",
    weight=0.45,
    scope=(
        ("", ""),
        ("only regular files", "-type f "),
        ("only directories", "-type d "),
        ("at most {num} levels deep", "-maxdepth {num} "),
    ),
    matcher=(
        ("named {name}", "-name {name}"),
        ("named {name} ignoring case", "-iname {name}"),
    ),
    action=(
        ("", ""),
        ("and delete them", " -delete"),
        ("and remove them", " -exec rm {{}} \\;"),
        ("with their details", " -ls"),
        ("and count them", " | wc -l"),
        ("and search them for {pattern}", " -exec grep -l {pattern} {{}} \\;"),
    ),
)

_GREP_THEME = _siblings(
    (
        "search {where} for {pattern} {mod}",
        "find {pattern} {where} {mod}",
        "look for lines with {pattern} {where} {mod}",
    ),
    "grep {mod}{where}",
    weight=0.4,
    where=(
        ("in {file}", "{pattern} {file}"),
        ("in every file under {dir}", "-r {pattern} {dir}"),
    ),
    mod=(
        ("", ""),
        ("ignoring case", "-i "),
        ("showing line numbers", "-n "),
        ("counting the matches", "-c "),
        ("keeping only lines without it", "-v "),
        ("printing just the file names", "-l "),
    ),
)

_LS_THEME = _siblings(
    (
        "list the files in {dir} {mod}",
        "show the files in {dir} {mod}",
        "list everything in {dir} {mod}",
    ),
    "{mod}",
    weight=0.45,
    mod=(
        ("with details", "ls -la {dir}"),
        ("sorted by modification time", "ls -lt {dir}"),
        ("sorted by size", "ls -lS {dir}"),
        ("oldest first", "ls -ltr {dir}"),
        ("with human readable sizes", "ls -lh {dir}"),
        ("including hidden ones", "ls -a {dir}"),
        ("recursively", "ls -R {dir}"),
        ("one per line", "ls -1 {dir}"),
    ),
)

_WC_THEME = _siblings(
    (
        "count the {mod} in {file}",
        "how many {mod} does {file} have",
        "print the number of {mod} in {file}",
    ),
    "{mod}",
    weight=0.5,
    mod=(
        ("lines", "wc -l {file}"),
        ("words", "wc -w {file}"),
        ("characters", "wc -c {file}"),
    ),
)

_SORT_THEME = _siblings(
    (
        "sort the lines of {file} {mod}",
        "order the contents of {file} {mod}",
        "print {file} sorted {mod}",
    ),
    "{mod}",
    weight=0.35,
    mod=(
        ("", "sort {file}"),
        ("numerically", "sort -n {file}"),
        ("in reverse", "sort -r {file}"),
        ("dropping duplicates", "sort -u {file}"),
        ("by number descending", "sort -rn {file}"),
    ),
)

_HEADTAIL_THEME = _siblings(
    (
        "show the {mod} of {file}",
        "print the {mod} from {file}",
        "display the {mod} in {file}",
    ),
    "{mod}",
    weight=0.5,
    mod=(
        ("first {num} lines", "head -n {num} {file}"),
        ("last {num} lines", "tail -n {num} {file}"),
        ("first {num} bytes", "head -c {num} {file}"),
        ("last {num} bytes", "tail -c {num} {file}"),
    ),
)

_TAR_THEME = _siblings(
    (
        "{mod} with tar",
        "use tar to {mod}",
    ),
    "{mod}",
    weight=0.5,
    mod=(
        ("compress {dir} into {archive}", "tar -czf {archive} {dir}"),
        ("extract the archive {archive}", "tar -xzf {archive}"),
        ("list the contents of {archive}", "tar -tzf {archive}"),
        ("extract {archive} into {dir}", "tar -xzf {archive} -C {dir}"),
    ),
)

_DISK_THEME = _siblings(
    (
        "{mod}",
        "report {mod}",
    ),
    "{mod}",
    weight=0.5,
    mod=(
        ("the disk space used by {dir}", "du -sh {dir}"),
        ("the disk space used by every file in {dir}", "du -ah {dir}"),
        ("the free disk space", "df -h"),
        ("the free inodes on every filesystem", "df -i"),
    ),
)


_RARE_SPECS = (
    ("show the file {file} with line numbers in front of each line", "nl {file}"),
    ("print the lines of {file} in reverse order", "tac {file}"),
    ("reverse the characters of every line in {file}", "rev {file}"),
    ("print {file} replacing its tabs with spaces", "expand {file}"),
    ("wrap the long lines of {file} at {num} characters", "fold -w {num} {file}"),
    ("show the lines that {file} and {file2} have in common", "comm {file} {file2}"),
    ("join the matching lines of {file} and {file2}", "join {file} {file2}"),
    ("merge {file} and {file2} side by side", "paste {file} {file2}"),
    ("split {file} into pieces of {num} lines", "split -l {num} {file}"),
    ("show the printable strings inside {file}", "strings {file}"),
    ("dump {file} as hexadecimal bytes", "xxd {file}"),
    ("encode the file {file} as base64", "base64 {file}"),
    ("compute a sha256 checksum of {file}", "sha256sum {file}"),
    ("compute a sha1 digest of {file}", "sha1sum {file}"),
    ("securely overwrite {file} before deleting it", "shred -u {file}"),
    ("shuffle the lines of {file} randomly", "shuf {file}"),
    ("pick {num} random lines from {file}", "shuf -n {num} {file}"),
    ("show detailed status information about {file}", "stat {file}"),
    ("resolve the real path of the link {file}", "readlink -f {file}"),
    ("strip the directory part from the path {file}", "basename {file}"),
    ("show the directory part of the path {file}", "dirname {file}"),
    ("print the kernel ring buffer messages", "dmesg"),
    ("show kernel messages about usb devices", "dmesg | grep -i usb"),
    ("list the firewall rules", "iptables -L"),
    ("show the kernel routing table", "route -n"),
    ("list the listening network ports", "netstat -tuln"),
    ("show the network interfaces and their addresses", "ifconfig"),
    ("list my scheduled cron jobs", "crontab -l"),
    ("list the installed packages", "dpkg -l"),
    ("which package owns the file {file}", "dpkg -S {file}"),
    ("find {file} using the locate database", "locate {file}"),
    ("show where the {proc} command and its manual live", "whereis {proc}"),
    ("open the manual page for {proc}", "man {proc}"),
    ("display a calendar for this month", "cal"),
    ("display a calendar for the whole year", "cal -y"),
    ("evaluate the expression {num} + {num} with bc", "echo {num}+{num} | bc"),
    ("print the prime factors of {num}", "factor {num}"),
    ("show the groups my user belongs to", "groups"),
    ("switch to the user {user}", "su {user}"),
    ("show a live view of running processes", "top"),
    ("rename every {name} file swapping {pattern} for {pattern2}", "rename 's/{pattern}/{pattern2}/' {name}"),
    ("create a named pipe called {file}", "mkfifo {file}"),
    ("list the enabled system services", "systemctl list-unit-files"),
    ("check the status of the {proc} service", "systemctl status {proc}"),
    ("restart the {proc} service", "sudo systemctl restart {proc}"),
    ("print only line {num} of {file}", "sed -n {num}p {file}"),
    ("print the first column of every line in {file}", "awk '{{print $1}}' {file}"),
    ("cut out field {num} of {file} using colon separators", "cut -d : -f {num} {file}"),
    ("delete all digits from the text of {file}", "cat {file} | tr -d 0-9"),
    ("show {file} while saving a copy to {file2}", "cat {file} | tee {file2}"),
    ("mirror the directory {dir} to {dir2} with rsync", "rsync -av {dir} {dir2}"),
    ("look up the process id of {proc}", "pgrep {proc}"),
    ("show the process ids and command lines matching {proc}", "pgrep -a {proc}"),
    ("make a hard link from {file} to {file2}", "ln {file} {file2}"),
    ("dump {file} as hex bytes and printable characters", "od -t x1 -t c {file}"),
    ("watch the memory usage refresh continuously", "watch free -m"),
    ("print every second line number of {file}", "sed -n 2p {file}"),
    ("show how often each word length occurs in {file}", "awk '{{print length}}' {file}"),
    ("report repeated lines of {file} skipping the first {num} fields", "uniq -f {num} {file}"),
    ("compare {file} and {file2} byte by byte", "cmp {file} {file2}"),
    ("show the differences between {dir} and {dir2} recursively", "diff -r {dir} {dir2}"),
    ("print the environment variable named {pattern}", "printenv {pattern}"),
    ("run {proc} with a low scheduling priority", "nice -n 19 {proc}"),
    ("keep {proc} running after the terminal closes", "nohup {proc}"),
    ("show the size of {file} in bytes", "stat -c %s {file}"),
    ("print the octal permissions of {file}", "stat -c %a {file}"),
    ("list the partitions of every disk", "fdisk -l"),
    ("show the type of the filesystem holding {dir}", "df -T {dir}"),
    ("archive {dir} with bzip2 compression", "tar -cjf {archive} {dir}"),
    ("show the serial console messages since boot", "dmesg -T"),
)

# Disjoint flag decorations: sibling one-offs never rescue each other,
# because their flag sets share nothing.
_RARE_JITTER = (("", ""), (" verbosely", " -v"), (" quietly", " -q"))


# One-off tasks: ~200 templates that occur about once per corpus. Real
# evaluation sets deliberately include utilities with little or no training
# support; these families reproduce that. Their phrasings reuse everyday
# words (show, list, file, lines), so a retrieval baseline confidently
# returns something related and wrong — the population confidence
# calibration exists to protect.
_RARE_FAMILIES = tuple(
    TaskFamily((phrasing + extra_phrase,), (cmd + extra_flag,), weight=0.05)
    for phrasing, cmd in _RARE_SPECS
    for extra_phrase, extra_flag in _RARE_JITTER
)


FAMILIES: tuple[TaskFamily, ...] = (
    _FIND_THEME
    + _GREP_THEME
    + _LS_THEME
    + _WC_THEME
    + _SORT_THEME
    + _HEADTAIL_THEME
    + _TAR_THEME
    + _DISK_THEME
) + (
    TaskFamily(
        (
            "delete all empty files under {dir}",
            "find empty files in {dir} and delete them",
            "remove every empty file in {dir}",
            "clean up empty files below {dir}",
        ),
        ("find {dir} -type f -empty -delete", "find {dir} -type f -empty -exec rm {{}} \\;"),
        weight=2.0,
    ),
    TaskFamily(
        (
            "find files bigger than {num} megabytes in {dir}",
            "list files larger than {num}M under {dir}",
            "search {dir} for files over {num} megabytes",
            "show files in {dir} larger than {num} MB",
        ),
        ("find {dir} -type f -size +{num}M",),
        weight=2.0,
    ),
    TaskFamily(
        (
            "find files modified in the last {num} days under {dir}",
            "list files changed within {num} days in {dir}",
            "show files in {dir} modified less than {num} days ago",
            "search {dir} for files newer than {num} days",
        ),
        ("find {dir} -type f -mtime -{num}",),
        weight=2.0,
    ),
    TaskFamily(
        (
            "delete files older than {num} days in {dir}",
            "remove files in {dir} not modified for {num} days",
            "clean {dir} of files older than {num} days",
        ),
        ("find {dir} -type f -mtime +{num} -delete", "find {dir} -type f -mtime +{num} -exec rm {{}} \\;"),
        weight=1.5,
    ),
    TaskFamily(
        (
            "find {name} files under {dir} containing {pattern}",
            "search every {name} file in {dir} for {pattern}",
            "find the text {pattern} in {name} files below {dir}",
            "list {name} files in {dir} that mention {pattern}",
        ),
        (
            "find {dir} -name {name} -exec grep -l {pattern} {{}} \\;",
            "find {dir} -name {name} | xargs grep -l {pattern}",
        ),
        weight=1.5,
    ),
    TaskFamily(
        (
            "make every file under {dir} mode 644",
            "change permissions of all files in {dir} to 644",
            "set permissions 644 on all files below {dir}",
        ),
        ("find {dir} -type f -exec chmod 644 {{}} \\;",),
        weight=1.0,
    ),
    TaskFamily(
        (
            "list all open files and the processes using them",
            "show open files with their owning processes",
            "list files that are currently open",
        ),
        ("lsof",),
        weight=0.75,
    ),
    # --- disk cluster: du vs df share most of their vocabulary ---
    TaskFamily(
        (
            "show only the total of the disk space report",
            "print just the total line of disk usage",
            "display the overall disk space total",
        ),
        ("df --total | tail -n 1",),
        weight=0.75,
    ),
    # --- archive cluster ---
    TaskFamily(
        (
            "compress the file {file} with gzip",
            "gzip {file} to save space",
            "make a compressed version of {file}",
        ),
        ("gzip {file}",),
        weight=0.75,
    ),
    TaskFamily(
        (
            "show new lines of {file} as they arrive",
            "keep printing {file} as it grows",
            "follow the end of {file} live",
        ),
        ("tail -f {file}",),
        weight=1.0,
    ),
    TaskFamily(
        (
            "count duplicate lines in {file} most frequent first",
            "rank the repeated lines of {file} by how often they occur",
            "show line frequencies in {file} sorted descending",
        ),
        ("sort {file} | uniq -c | sort -rn",),
        weight=1.0,
    ),
    # --- process cluster: show vs find vs kill a process ---
    TaskFamily(
        (
            "find the {proc} process",
            "show the running {proc} process",
            "check whether {proc} is running",
            "is the {proc} process alive",
        ),
        ("ps aux | grep {proc}",),
        weight=2.0,
    ),
    TaskFamily(
        (
            "kill the {proc} process",
            "stop every {proc} process",
            "terminate all processes called {proc}",
        ),
        ("pkill {proc}", "killall {proc}"),
        weight=1.5,
    ),
    TaskFamily(
        (
            "kill all my background jobs",
            "stop every job running in this shell",
            "terminate the shell background jobs",
        ),
        ("kill $( jobs -p )",),
        weight=0.75,
    ),
    TaskFamily(
        (
            "show the process tree",
            "display processes as a tree",
            "print the tree of running processes",
        ),
        ("pstree",),
        weight=0.5,
    ),
    # --- permissions cluster ---
    TaskFamily(
        (
            "make {file} executable",
            "add execute permission to {file}",
            "let {file} run as a program",
        ),
        ("chmod +x {file}",),
        weight=1.5,
    ),
    TaskFamily(
        (
            "change the owner of {file} to {user}",
            "make {user} the owner of {file}",
            "give {user} ownership of {file}",
        ),
        ("sudo chown {user} {file}",),
        weight=1.5,
    ),
    # --- copy/move cluster: local copy vs remote copy collide ---
    TaskFamily(
        (
            "copy the directory {dir} to {dir2}",
            "copy {dir} and its contents to {dir2}",
            "recursively copy the folder {dir} to {dir2}",
        ),
        ("cp -R {dir} {dir2}",),
        weight=2.0,
    ),
    TaskFamily(
        (
            "copy {file} to {file2}",
            "copy the file {file} over to {file2}",
            "make a copy of {file} named {file2}",
        ),
        ("cp {file} {file2}",),
        weight=2.0,
    ),
    TaskFamily(
        (
            "copy {file} to the host {host}",
            "copy the file {file} to the remote machine {host}",
            "transfer {file} to {host} over ssh",
        ),
        ("scp {file} {user}@{host}:{dir}",),
        weight=1.0,
    ),
    TaskFamily(
        (
            "rename {file} to {file2}",
            "move {file} to {file2}",
            "change the name of {file} to {file2}",
        ),
        ("mv {file} {file2}",),
        weight=2.0,
    ),
    # --- create/delete cluster ---
    TaskFamily(
        (
            "create the directory {dir} with its parents",
            "make the folder {dir} creating missing parents",
            "create {dir} including parent directories",
        ),
        ("mkdir -p {dir}",),
        weight=1.5,
    ),
    TaskFamily(
        (
            "create an empty file called {file}",
            "make a new empty file {file}",
            "create the file {file} if it does not exist",
        ),
        ("touch {file}",),
        weight=1.0,
    ),
    TaskFamily(
        (
            "delete the directory {dir} and everything in it",
            "remove the folder {dir} recursively",
            "delete {dir} with all of its contents",
        ),
        ("rm -rf {dir}",),
        weight=1.5,
    ),
    TaskFamily(
        (
            "delete the file {file}",
            "remove {file} from disk",
            "get rid of the file {file}",
        ),
        ("rm {file}",),
        weight=1.5,
    ),
    # --- viewing cluster ---
    TaskFamily(
        (
            "show the contents of {file}",
            "print {file} to the terminal",
            "display what is inside {file}",
        ),
        ("cat {file}",),
        weight=2.0,
    ),
    TaskFamily(
        (
            "view {file} one page at a time",
            "open {file} in a pager",
            "read {file} page by page",
        ),
        ("less {file}",),
        weight=0.75,
    ),
    TaskFamily(
        (
            "show what kind of file {file} is",
            "detect the type of {file}",
            "what format is the file {file}",
        ),
        ("file {file}",),
        weight=0.5,
    ),
    # --- network cluster ---
    TaskFamily(
        (
            "ping {host} {num} times",
            "send {num} pings to {host}",
            "check connectivity to {host} with {num} packets",
        ),
        ("ping -c {num} {host}",),
        weight=1.5,
    ),
    TaskFamily(
        (
            "connect to {host} as {user} over ssh",
            "open an ssh session to {host} as the user {user}",
            "log into the host {host} as {user}",
        ),
        ("ssh {user}@{host}",),
        weight=1.5,
    ),
    TaskFamily(
        (
            "download the file at {url}",
            "fetch {url} from the web",
            "download {url} and save it locally",
        ),
        ("wget {url}", "curl -O {url}"),
        weight=1.5,
    ),
    TaskFamily(
        (
            "look up the dns records for {host}",
            "resolve the hostname {host}",
            "find the ip address of {host}",
        ),
        ("nslookup {host}", "host {host}"),
        weight=0.5,
    ),
    TaskFamily(
        (
            "trace the network route to {host}",
            "show the hops to reach {host}",
            "trace the path packets take to {host}",
        ),
        ("traceroute {host}",),
        weight=0.5,
    ),
    # --- text editing cluster ---
    TaskFamily(
        (
            "replace {pattern} with {pattern2} in {file}",
            "substitute {pattern2} for {pattern} everywhere in {file}",
            "swap every {pattern} for {pattern2} inside {file}",
        ),
        ("sed -i 's/{pattern}/{pattern2}/g' {file}",),
        weight=1.0,
    ),
    TaskFamily(
        (
            "print {file} in all uppercase letters",
            "convert the contents of {file} to uppercase",
            "uppercase everything in {file}",
        ),
        ("cat {file} | tr a-z A-Z",),
        weight=0.75,
    ),
    TaskFamily(
        (
            "append the line {pattern} to {file}",
            "add {pattern} to the end of {file}",
            "write {pattern} at the bottom of {file}",
        ),
        ("echo {pattern} >> {file}",),
        weight=1.0,
    ),
    # --- comparison / checksums ---
    TaskFamily(
        (
            "compare {file} with {file2}",
            "show the differences between {file} and {file2}",
            "diff the files {file} and {file2}",
        ),
        ("diff {file} {file2}",),
        weight=1.5,
    ),
    TaskFamily(
        (
            "compute the md5 checksum of {file}",
            "show the md5 hash of {file}",
            "calculate the md5 digest for {file}",
        ),
        ("md5sum {file}",),
        weight=1.0,
    ),
    # --- misc tail: small families with shared generic vocabulary ---
    TaskFamily(
        (
            "search my shell history for {pattern}",
            "find {pattern} in the command history",
            "which past commands mention {pattern}",
        ),
        ("history | grep {pattern}",),
        weight=1.0,
    ),
    TaskFamily(
        (
            "show memory usage in megabytes",
            "how much memory is free",
            "display how much ram is used",
        ),
        ("free -m",),
        weight=1.0,
    ),
    TaskFamily(
        (
            "show the kernel release version",
            "what kernel version is running",
            "print the version of the running kernel",
        ),
        ("uname -r",),
        weight=1.0,
    ),
    TaskFamily(
        (
            "where is the {proc} binary installed",
            "show the path of the {proc} command",
            "which executable runs when i type {proc}",
        ),
        ("which {proc}",),
        weight=1.0,
    ),
    TaskFamily(
        (
            "create a symbolic link from {file} to {file2}",
            "make {file2} a symlink pointing at {file}",
            "link {file2} to {file} symbolically",
        ),
        ("ln -s {file} {file2}",),
        weight=1.0,
    ),
    TaskFamily(
        (
            "show which user i am logged in as",
            "print my current username",
            "what user am i",
        ),
        ("whoami",),
        weight=0.5,
    ),
    TaskFamily(
        (
            "show who is logged into this machine",
            "list the users currently logged in",
            "which users have sessions open",
        ),
        ("who",),
        weight=0.5,
    ),
    TaskFamily(
        (
            "how long has the machine been up",
            "show the system uptime",
            "print how long the server has been running",
        ),
        ("uptime",),
        weight=0.5,
    ),
    TaskFamily(
        (
            "print the current date and time",
            "show today's date",
            "what time is it according to the system",
        ),
        ("date",),
        weight=0.5,
    ),
    TaskFamily(
        (
            "show all environment variables",
            "print the current environment",
            "list the environment variables that are set",
        ),
        ("printenv", "env"),
        weight=0.5,
    ),
    TaskFamily(
        (
            "list the block devices",
            "show the disks and partitions",
            "display the block device tree",
        ),
        ("lsblk",),
        weight=0.35,
    ),
    TaskFamily(
        (
            "show information about the cpu",
            "display the processor details",
            "what cpu does this machine have",
        ),
        ("lscpu",),
        weight=0.35,
    ),
    TaskFamily(
        (
            "watch the disk space refresh every few seconds",
            "monitor free disk space continuously",
            "keep an eye on disk usage as it changes",
        ),
        ("watch df -h",),
        weight=0.35,
    ),
    TaskFamily(
        (
            "print the numbers from 1 to {num}",
            "generate a sequence up to {num}",
            "count from 1 to {num}",
        ),
        ("seq {num}",),
        weight=0.35,
    ),
    TaskFamily(
        (
            "pause for {num} seconds",
            "wait {num} seconds before continuing",
            "do nothing for {num} seconds",
        ),
        ("sleep {num}",),
        weight=0.35,
    ),
) + _RARE_FAMILIES


_SLOT_POOLS = {
    "dir": _DIRS,
    "dir2": _DIRS,
    "name": _NAMES,
    "file": _FILES,
    "file2": _FILES2,
    "archive": _ARCHIVES,
    "pattern": _PATTERNS,
    "pattern2": _PATTERNS,
    "proc": _PROCS,
    "user": _USERS,
    "host": _HOSTS,
    "url": _URLS,
    "num": _NUMS,
}


def _draw_slots(rng: random.Random, family: TaskFamily) -> dict:
    # Iterate in a fixed order: RNG draws must not depend on set/hash order.
    needed = [
        name
        for name in sorted(_SLOT_POOLS)
        if any(("{%s}" % name) in text for text in family.phrasings + family.commands)
    ]
    slots = {name: rng.choice(_SLOT_POOLS[name]) for name in needed}
    if "dir2" in slots and slots.get("dir") == slots["dir2"]:
        slots["dir2"] = rng.choice([d for d in _DIRS if d != slots["dir"]])
    if "pattern2" in slots and slots.get("pattern") == slots["pattern2"]:
        slots["pattern2"] = rng.choice([p for p in _PATTERNS if p != slots["pattern"]])
    return slots


def _synonymize(text: str, rng: random.Random) -> str:
    words = text.split()
    out = []
    for word in words:
        options = _SYNONYMS.get(word.lower())
        if options and rng.random() < _SYNONYM_RATE:
            out.append(rng.choice(options))
        else:
            out.append(word)
    return " ".join(out)


def _perturb(text: str, rng: random.Random) -> str:
    text = _synonymize(text, rng)
    if rng.random() < 0.35:
        text = rng.choice(_PREFIXES) + text
    if rng.random() < 0.25:
        text = text + rng.choice(_SUFFIXES)
    words = text.split()
    if len(words) > 4 and rng.random() < 0.25:
        del words[rng.randrange(len(words))]
        text = " ".join(words)
    return text


def _pick_phrasing(rng: random.Random, family: TaskFamily) -> str:
    # Zipf-style: the first phrasing dominates, later ones are rare ways
    # of asking with little training support.
    weights = [1.0 / (idx + 1) ** 1.3 for idx in range(len(family.phrasings))]
    return rng.choices(family.phrasings, weights=weights, k=1)[0]


def toy_corpus(n: int, seed: int = 0) -> list[Example]:
    """Generate n synthetic examples with family-weighted task sampling."""
    rng = random.Random(seed)
    weights = [f.weight for f in FAMILIES]
    examples = []
    for i in range(n):
        family = rng.choices(FAMILIES, weights=weights, k=1)[0]
        slots = _draw_slots(rng, family)
        invocation = _perturb(_pick_phrasing(rng, family).format(**slots), rng)
        refs = tuple(cmd.format(**slots) for cmd in family.commands)
        examples.append(Example(f"syn-{seed}-{i:06d}", invocation, refs))
    return examples


def command_corpus(n: int, seed: int = 0) -> list[str]:
    """Generate n standalone parseable commands with spacing variety."""
    rng = random.Random(seed)
    weights = [f.weight for f in FAMILIES]
    commands = []
    for _ in range(n):
        family = rng.choices(FAMILIES, weights=weights, k=1)[0]
        slots = _draw_slots(rng, family)
        cmd = rng.choice(family.commands).format(**slots)
        if rng.random() < 0.25:
            cmd = cmd.replace(" | ", "  |  ")
        if rng.random() < 0.15:
            cmd = cmd + " "
        commands.append(cmd)
    return commands
