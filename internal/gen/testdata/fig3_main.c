extern int z1,z2,z3,z4,z5,z6;
extern void Init();
main() {
	int a, b, c;
	Init(&a, &b, &c);
	if (z1) goto Begin;
	if (z2) goto End;
	if (z3) goto Begin;
	if (z4) goto End;
	if (z5) goto Begin;
	if (z6) goto End;
Begin:
	PAYLOAD
End:
	printf("%i\n", a);
	exit(0);
}
