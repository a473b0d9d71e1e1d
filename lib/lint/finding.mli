(** A single histolint finding: file/line/column, the rule, and a
    human message.  Findings order deterministically (file, line, col,
    rule name) so reports and golden tests are stable.

    [audit] records one suppression site — an [\[@histolint.allow\]],
    [\[@histolint.disjoint\]], [\[@histolint.alloc_ok\]] or
    [\[@@histolint.keep\]] — with its
    reason (when the attribute kind carries one) and whether it
    actually covered anything, so lint posture can be diffed across
    PRs from the JSON artifact. *)

type t = {
  file : string;  (** repo-relative source path *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as in compiler locations *)
  rule : Rules.t;
  message : string;
}

val compare : t -> t -> int
(** By file, line, column, rule, then message: two hazards of one rule at
    one site are two findings. *)

val to_human : t -> string
(** [file:line:col: severity [rule] message] — one line. *)

val to_json : t -> string
(** One JSON object, no trailing newline. *)

val json_escape : string -> string
(** Minimal JSON string escaping (quotes, backslashes, control chars). *)

type audit = {
  au_file : string;
  au_line : int;
  au_col : int;
  au_kind : string;  (** "allow" | "disjoint" | "alloc_ok" | "keep" *)
  au_rules : string list;  (** the rule ids the site can suppress *)
  au_reason : string option;  (** mandatory for disjoint/alloc_ok *)
  au_used : bool;  (** did it cover at least one site? *)
}

val audit_compare : audit -> audit -> int
val audit_to_human : audit -> string
val audit_to_json : audit -> string
